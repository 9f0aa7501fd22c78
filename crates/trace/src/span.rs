//! Request spans: the per-request identity and latency-attribution layer
//! under `vcache serve`'s observability (DESIGN.md §8).
//!
//! A **span** is one timed interval of work with a stable numeric id, an
//! optional parent, and a free-form label. Spans form a tree per request:
//! the daemon mints a *root* span when a request line arrives, and every
//! stage it passes through — queue wait, worker execution, the abstract
//! interpreter's phases — opens a child. Each finished span is exported
//! as one flat JSON line (same hand-rolled wire style as
//! [`crate::event`]), so a span file is greppable and replayable with no
//! dependencies.
//!
//! Completeness is the design invariant: **every opened span is
//! recorded exactly once**, whatever happens to the request.
//! [`SpanHandle::finish`] records explicitly with a status; a handle
//! dropped without finishing (a panicking handler unwinding through
//! `catch_unwind`, an abandoned guard) records itself from `Drop` with
//! status `"panic"` or `"abandoned"`. There is no code path that leaks
//! an unclosed span.
//!
//! Status strings are free-form by type but conventional by use: `"ok"`,
//! one of the serve protocol's stable error codes (`"overloaded"`,
//! `"deadline_exceeded"`, …), `"shed"`, `"cancelled"`, `"panic"`, or
//! `"abandoned"`.

use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::event::{need_str, need_u64, opt_str, opt_u64, scan_object, Lit, ParseError};

/// Status a [`SpanHandle`] records when dropped while its thread is
/// panicking.
pub const STATUS_PANIC: &str = "panic";
/// Status a [`SpanHandle`] records when dropped without an explicit
/// [`SpanHandle::finish`] on a non-panicking thread.
pub const STATUS_ABANDONED: &str = "abandoned";

/// One finished span as it appears on the wire: a flat JSON object, one
/// per line.
///
/// Schema (field order is part of the golden-pinned format):
///
/// ```text
/// {"span":N,"parent":N|null,"request":N,"label":"...","start_us":N,
///  "dur_us":N,"status":"...","req_id":N|null,"digest":"..."|null}
/// ```
///
/// * `span` — collector-unique span id (never 0).
/// * `parent` — parent span id; `null` exactly on root spans.
/// * `request` — the root span id of this span's tree (roots point at
///   themselves), so one `grep` reassembles a request.
/// * `start_us` — microseconds since the collector's epoch.
/// * `dur_us` — wall microseconds from open to finish.
/// * `req_id` — the protocol correlation id (roots only).
/// * `digest` — the canonical request digest (roots only, when known).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Collector-unique span id.
    pub span: u64,
    /// Parent span id; `None` on roots.
    pub parent: Option<u64>,
    /// Root span id of this span's tree.
    pub request: u64,
    /// Operation or phase label (e.g. `analyze_nest`, `queue_wait`).
    pub label: String,
    /// Microseconds since the collector epoch at open.
    pub start_us: u64,
    /// Wall microseconds from open to finish.
    pub dur_us: u64,
    /// Outcome: `ok`, an error code, `shed`, `cancelled`, `panic`, …
    pub status: String,
    /// Protocol correlation id (roots only).
    pub req_id: Option<u64>,
    /// Canonical request digest (roots only, when known).
    pub digest: Option<String>,
}

impl SpanRecord {
    /// True for request-root spans.
    #[must_use]
    pub fn is_root(&self) -> bool {
        self.parent.is_none()
    }

    /// Serializes to one JSON line (no trailing newline).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        fn opt_u64(v: Option<u64>) -> String {
            v.map_or_else(|| "null".into(), |n| n.to_string())
        }
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
        format!(
            "{{\"span\":{},\"parent\":{},\"request\":{},\"label\":{},\"start_us\":{},\
             \"dur_us\":{},\"status\":{},\"req_id\":{},\"digest\":{}}}",
            self.span,
            opt_u64(self.parent),
            self.request,
            quote(&self.label),
            self.start_us,
            self.dur_us,
            quote(&self.status),
            opt_u64(self.req_id),
            self.digest.as_deref().map_or_else(|| "null".into(), quote),
        )
    }

    /// Parses one JSON line produced by [`SpanRecord::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on malformed JSON or missing fields.
    pub fn from_jsonl(text: &str) -> Result<Self, ParseError> {
        #[derive(Default)]
        struct Slots<'a> {
            span: Option<Lit<'a>>,
            parent: Option<Lit<'a>>,
            request: Option<Lit<'a>>,
            label: Option<Lit<'a>>,
            start_us: Option<Lit<'a>>,
            dur_us: Option<Lit<'a>>,
            status: Option<Lit<'a>>,
            req_id: Option<Lit<'a>>,
            digest: Option<Lit<'a>>,
        }
        let mut f = Slots::default();
        scan_object(text, |key, value| {
            let slot = match key {
                "span" => &mut f.span,
                "parent" => &mut f.parent,
                "request" => &mut f.request,
                "label" => &mut f.label,
                "start_us" => &mut f.start_us,
                "dur_us" => &mut f.dur_us,
                "status" => &mut f.status,
                "req_id" => &mut f.req_id,
                "digest" => &mut f.digest,
                _ => return,
            };
            slot.get_or_insert(value);
        })?;
        Ok(Self {
            span: need_u64(&f.span, "span")?,
            parent: opt_u64(&f.parent, "parent")?,
            request: need_u64(&f.request, "request")?,
            label: need_str(&f.label, "label")?.to_owned(),
            start_us: need_u64(&f.start_us, "start_us")?,
            dur_us: need_u64(&f.dur_us, "dur_us")?,
            status: need_str(&f.status, "status")?.to_owned(),
            req_id: opt_u64(&f.req_id, "req_id")?,
            digest: opt_str(&f.digest, "digest")?.map(str::to_owned),
        })
    }
}

impl fmt::Display for SpanRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_jsonl())
    }
}

/// Lifetime counters of a [`SpanCollector`]: with every handle finished,
/// `opened == finished` — the no-leak invariant tests assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanCounts {
    /// Spans ever opened.
    pub opened: u64,
    /// Spans recorded (explicitly finished or drop-closed).
    pub finished: u64,
}

struct CollectorState {
    next_id: u64,
    opened: u64,
    finished: u64,
    writer: Option<Box<dyn Write + Send>>,
}

/// A clone-able, thread-safe span sink: mints ids, stamps times against
/// one shared epoch, and writes each finished span as a JSONL line.
///
/// Without a writer the collector only counts — the span machinery then
/// costs one mutex hop per open/finish and allocates nothing durable,
/// which is what keeps the always-on daemon instrumentation cheap.
#[derive(Clone)]
pub struct SpanCollector {
    epoch: Instant,
    state: Arc<Mutex<CollectorState>>,
}

impl fmt::Debug for SpanCollector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let counts = self.counts();
        f.debug_struct("SpanCollector")
            .field("opened", &counts.opened)
            .field("finished", &counts.finished)
            .finish()
    }
}

impl Default for SpanCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanCollector {
    /// A counting-only collector (no export).
    #[must_use]
    pub fn new() -> Self {
        Self::with_optional_writer(None)
    }

    /// A collector exporting every finished span to `writer`.
    #[must_use]
    pub fn with_writer(writer: Box<dyn Write + Send>) -> Self {
        Self::with_optional_writer(Some(writer))
    }

    /// A collector exporting to a freshly created JSONL file.
    ///
    /// # Errors
    ///
    /// File creation failures.
    pub fn to_file(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::with_writer(Box::new(file)))
    }

    fn with_optional_writer(writer: Option<Box<dyn Write + Send>>) -> Self {
        Self {
            epoch: Instant::now(),
            state: Arc::new(Mutex::new(CollectorState {
                next_id: 1,
                opened: 0,
                finished: 0,
                writer,
            })),
        }
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut CollectorState) -> R) -> R {
        let mut guard = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut guard)
    }

    fn next_id(&self) -> u64 {
        self.with_state(|s| {
            let id = s.next_id;
            s.next_id += 1;
            s.opened += 1;
            id
        })
    }

    fn elapsed_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn record(&self, record: &SpanRecord) {
        self.with_state(|s| {
            s.finished += 1;
            if let Some(writer) = s.writer.as_mut() {
                let mut text = record.to_jsonl();
                text.push('\n');
                // Export is best-effort: a full disk must not take the
                // daemon down with it.
                let _ = writer.write_all(text.as_bytes());
            }
        });
    }

    /// Opens a request-root span. `req_id` is the protocol correlation
    /// id; `digest` the canonical request digest when already computed.
    #[must_use]
    pub fn root(&self, label: &str, req_id: u64, digest: Option<String>) -> SpanHandle {
        let id = self.next_id();
        SpanHandle {
            collector: self.clone(),
            id,
            request: id,
            parent: None,
            label: label.to_owned(),
            req_id: Some(req_id),
            digest,
            start_us: self.elapsed_us(),
            started: Instant::now(),
            finished: false,
        }
    }

    /// Lifetime open/finish counters.
    #[must_use]
    pub fn counts(&self) -> SpanCounts {
        self.with_state(|s| SpanCounts {
            opened: s.opened,
            finished: s.finished,
        })
    }

    /// Flushes the export writer, if any.
    ///
    /// # Errors
    ///
    /// Propagates the writer's flush failure.
    pub fn flush(&self) -> io::Result<()> {
        self.with_state(|s| match s.writer.as_mut() {
            Some(w) => w.flush(),
            None => Ok(()),
        })
    }
}

/// A position in a span tree that can open children without holding the
/// owning [`SpanHandle`] — the piece that travels across threads (the
/// daemon's queue) while the root handle stays put.
#[derive(Clone)]
pub struct SpanContext {
    collector: SpanCollector,
    request: u64,
    span: u64,
}

impl SpanContext {
    /// Opens a child of the context's span.
    #[must_use]
    pub fn child(&self, label: &str) -> SpanHandle {
        SpanHandle {
            collector: self.collector.clone(),
            id: self.collector.next_id(),
            request: self.request,
            parent: Some(self.span),
            label: label.to_owned(),
            req_id: None,
            digest: None,
            start_us: self.collector.elapsed_us(),
            started: Instant::now(),
            finished: false,
        }
    }

    /// The context's span id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.span
    }
}

/// One open span. Finish it explicitly with a status; if it is dropped
/// unfinished it records itself as [`STATUS_PANIC`] (when the thread is
/// unwinding) or [`STATUS_ABANDONED`].
pub struct SpanHandle {
    collector: SpanCollector,
    id: u64,
    request: u64,
    parent: Option<u64>,
    label: String,
    req_id: Option<u64>,
    digest: Option<String>,
    start_us: u64,
    started: Instant,
    finished: bool,
}

impl SpanHandle {
    /// The span's id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Opens a child span.
    #[must_use]
    pub fn child(&self, label: &str) -> SpanHandle {
        self.context().child(label)
    }

    /// A thread-portable handle for opening children of this span.
    #[must_use]
    pub fn context(&self) -> SpanContext {
        SpanContext {
            collector: self.collector.clone(),
            request: self.request,
            span: self.id,
        }
    }

    /// Records the span with `status` and consumes the handle.
    pub fn finish(mut self, status: &str) {
        self.record(status);
    }

    fn record(&mut self, status: &str) {
        if self.finished {
            return;
        }
        self.finished = true;
        let record = SpanRecord {
            span: self.id,
            parent: self.parent,
            request: self.request,
            label: std::mem::take(&mut self.label),
            start_us: self.start_us,
            dur_us: u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX),
            status: status.to_owned(),
            req_id: self.req_id,
            digest: self.digest.take(),
        };
        self.collector.record(&record);
    }
}

impl fmt::Debug for SpanHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanHandle")
            .field("id", &self.id)
            .field("request", &self.request)
            .field("label", &self.label)
            .finish()
    }
}

impl Drop for SpanHandle {
    fn drop(&mut self) {
        if !self.finished {
            let status = if std::thread::panicking() {
                STATUS_PANIC
            } else {
                STATUS_ABANDONED
            };
            self.record(status);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A collector writing into a shared byte buffer the test can read.
    fn capturing() -> (SpanCollector, Arc<Mutex<Vec<u8>>>) {
        #[derive(Clone)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, data: &[u8]) -> io::Result<usize> {
                self.0
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let collector = SpanCollector::with_writer(Box::new(Buf(Arc::clone(&buf))));
        (collector, buf)
    }

    fn lines(buf: &Arc<Mutex<Vec<u8>>>) -> Vec<SpanRecord> {
        let bytes = buf.lock().unwrap().clone();
        String::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(|l| SpanRecord::from_jsonl(l).unwrap())
            .collect()
    }

    #[test]
    fn record_round_trips_exactly() {
        let samples = [
            SpanRecord {
                span: 1,
                parent: None,
                request: 1,
                label: "analyze_nest".into(),
                start_us: 120,
                dur_us: 4500,
                status: "ok".into(),
                req_id: Some(7),
                digest: Some("a3f1".into()),
            },
            SpanRecord {
                span: 3,
                parent: Some(1),
                request: 1,
                label: "queue_wait".into(),
                start_us: 0,
                dur_us: u64::MAX,
                status: "deadline_exceeded".into(),
                req_id: None,
                digest: None,
            },
            SpanRecord {
                span: 9,
                parent: Some(2),
                request: 2,
                label: "weird \"label\"\n".into(),
                start_us: 1,
                dur_us: 2,
                status: STATUS_ABANDONED.into(),
                req_id: Some(0),
                digest: None,
            },
            // Every control character, which the writer escapes as
            // `\u00XX` unless it has a short escape.
            SpanRecord {
                span: 4,
                parent: None,
                request: 4,
                label: (0u8..0x20).map(char::from).collect::<String>() + "\"\\",
                start_us: 3,
                dur_us: 4,
                status: "a\rb\"\\\u{1f}".into(),
                req_id: Some(7),
                digest: Some("\u{0}\\\"é".into()),
            },
        ];
        for record in samples {
            let text = record.to_jsonl();
            assert!(!text.contains('\n'), "{text}");
            assert_eq!(SpanRecord::from_jsonl(&text).unwrap(), record, "{text}");
        }
    }

    #[test]
    fn tree_structure_and_counts() {
        let (collector, buf) = capturing();
        let root = collector.root("check", 42, Some("deadbeef".into()));
        let queue = root.child("queue_wait");
        queue.finish("ok");
        let worker = root.child("worker");
        let phase = worker.child("lineset");
        phase.finish("ok");
        worker.finish("ok");
        root.finish("ok");

        let records = lines(&buf);
        assert_eq!(records.len(), 4);
        let root_rec = records.iter().find(|r| r.is_root()).unwrap();
        assert_eq!(root_rec.req_id, Some(42));
        assert_eq!(root_rec.digest.as_deref(), Some("deadbeef"));
        assert_eq!(root_rec.request, root_rec.span);
        for r in &records {
            assert_eq!(r.request, root_rec.span, "{r:?}");
            if let Some(parent) = r.parent {
                assert!(records.iter().any(|p| p.span == parent), "{r:?}");
            }
        }
        let phase_rec = records.iter().find(|r| r.label == "lineset").unwrap();
        let worker_rec = records.iter().find(|r| r.label == "worker").unwrap();
        assert_eq!(phase_rec.parent, Some(worker_rec.span));
        assert!(phase_rec.dur_us <= worker_rec.dur_us + 1);
        let counts = collector.counts();
        assert_eq!(counts.opened, 4);
        assert_eq!(counts.finished, 4);
    }

    #[test]
    fn context_opens_children_across_threads() {
        let (collector, buf) = capturing();
        let root = collector.root("analyze_nest", 1, None);
        let ctx = root.context();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let worker = ctx.child("worker");
            worker.finish("ok");
            tx.send(()).unwrap();
        });
        rx.recv().unwrap();
        root.finish("ok");
        let records = lines(&buf);
        assert_eq!(records.len(), 2);
        let worker = records.iter().find(|r| r.label == "worker").unwrap();
        let root_rec = records.iter().find(|r| r.label == "analyze_nest").unwrap();
        assert_eq!(worker.parent, Some(root_rec.span));
    }

    #[test]
    fn dropped_handles_record_abandoned() {
        let (collector, buf) = capturing();
        {
            let root = collector.root("ping", 9, None);
            let _child = root.child("handler");
            // Both dropped unfinished.
        }
        let records = lines(&buf);
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|r| r.status == STATUS_ABANDONED));
        let counts = collector.counts();
        assert_eq!(counts.opened, counts.finished);
    }

    #[test]
    fn unwinding_handles_record_panic() {
        let (collector, buf) = capturing();
        let root = collector.root("check", 1, None);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = root.child("worker");
            panic!("injected");
        }));
        assert!(result.is_err());
        root.finish("internal_error");
        let records = lines(&buf);
        let worker = records.iter().find(|r| r.label == "worker").unwrap();
        assert_eq!(worker.status, STATUS_PANIC);
        assert_eq!(collector.counts().opened, collector.counts().finished);
    }

    #[test]
    fn double_finish_is_impossible_and_ids_are_unique() {
        let (collector, buf) = capturing();
        let mut ids = Vec::new();
        for i in 0..10 {
            let root = collector.root("ping", i, None);
            ids.push(root.id());
            root.finish("ok");
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10);
        assert_eq!(lines(&buf).len(), 10);
    }

    #[test]
    fn counting_only_collector_works_without_writer() {
        let collector = SpanCollector::new();
        let root = collector.root("status", 1, None);
        root.child("handler").finish("ok");
        root.finish("ok");
        assert!(collector.flush().is_ok());
        assert_eq!(
            collector.counts(),
            SpanCounts {
                opened: 2,
                finished: 2
            }
        );
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in ["", "{", "not json", "{\"span\":1}"] {
            assert!(SpanRecord::from_jsonl(bad).is_err(), "accepted: {bad}");
        }
    }
}
