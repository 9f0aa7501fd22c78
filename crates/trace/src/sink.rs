//! Event sinks: where trace events go.
//!
//! Instrumented code is generic over `S: TraceSink + ?Sized`, so one body
//! serves both a concrete sink and `&mut dyn TraceSink`. Three
//! implementations cover the use cases — [`NullSink`] (discard), [`RingSink`]
//! (bounded in-memory tail for tests and post-mortem), [`JsonlSink`]
//! (streaming JSONL file for `vcache analyze`) — and [`MeteringSink`]
//! derives metrics on the way to another sink.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::event::{BankEventKind, PhaseKind, TraceEvent};
use crate::metrics::{Histogram, MetricsRegistry, DEFAULT_BOUNDS};

/// Receives trace events.
pub trait TraceSink {
    /// Records one event.
    fn record(&mut self, event: &TraceEvent);

    /// Flushes buffered output, surfacing any deferred I/O error.
    ///
    /// # Errors
    ///
    /// Implementation-specific; in-memory sinks never fail.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Discards everything. Useful as a monomorphization target that
/// optimizes instrumentation away entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn record(&mut self, _event: &TraceEvent) {}
}

/// Keeps the most recent `capacity` events in memory, dropping the
/// oldest on overflow — a flight recorder.
#[derive(Debug, Clone)]
pub struct RingSink {
    capacity: usize,
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` events (capacity 0 drops all).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            buf: VecDeque::with_capacity(capacity.min(1 << 16)),
            dropped: 0,
        }
    }

    /// The configured bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing is held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many events were discarded to stay within capacity.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Drains the retained events, oldest first.
    #[must_use]
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.buf.into_iter().collect()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: &TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event.clone());
    }
}

/// Streams events as JSON lines to a writer (typically a buffered
/// file). I/O errors are deferred: recording never panics; the first
/// error is reported by [`TraceSink::flush`] (also called on drop,
/// where it is ignored).
pub struct JsonlSink<W: Write = BufWriter<File>> {
    /// `None` only transiently, after `into_inner` takes the writer.
    out: Option<W>,
    /// The line being written, reused from event to event.
    line: Vec<u8>,
    written: u64,
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncates) `path` and streams events to it.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::from_writer(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Streams events to an arbitrary writer.
    pub fn from_writer(out: W) -> Self {
        Self {
            out: Some(out),
            line: Vec::with_capacity(128),
            written: 0,
            error: None,
        }
    }

    /// Events successfully written so far.
    #[must_use]
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Surfaces any deferred write error.
    pub fn into_inner(mut self) -> io::Result<W> {
        TraceSink::flush(&mut self)?;
        // `out` is only ever None after this method has consumed `self`,
        // so the take always succeeds; report an error instead of assuming.
        self.out
            .take()
            .ok_or_else(|| io::Error::other("JsonlSink writer already taken"))
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        let Some(out) = self.out.as_mut() else {
            return;
        };
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        event.write_jsonl(&mut self.line);
        self.line.push(b'\n');
        if let Err(e) = out.write_all(&self.line) {
            self.error = Some(e);
        } else {
            self.written += 1;
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        match self.out.as_mut() {
            Some(out) => out.flush(),
            None => Ok(()),
        }
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        if let Some(out) = self.out.as_mut() {
            let _ = out.flush();
        }
    }
}

/// Tees events to an inner sink while deriving standard metrics into a
/// [`MetricsRegistry`]:
///
/// | metric | kind | meaning |
/// |---|---|---|
/// | `cache.accesses` / `cache.hits` / `cache.misses` | counter | cache events seen |
/// | `cache.miss.<class>` | counter | misses by taxonomy class |
/// | `cache.inter_miss_distance` | histogram | accesses between consecutive misses |
/// | `mem.accesses` / `mem.bank_conflicts` | counter | bank events seen |
/// | `mem.bank_wait_cycles` | histogram | wait per bank access |
/// | `machine.chimes` | counter | chime phases completed |
///
/// The sink counts in typed fields and folds them into the registry once,
/// when it is dropped; the registry stays borrowed until then. A counter
/// or histogram appears only once it has counted something, as if each
/// event had been recorded into the registry directly.
pub struct MeteringSink<'a> {
    inner: &'a mut dyn TraceSink,
    metrics: &'a mut MetricsRegistry,
    cache_accesses: u64,
    cache_hits: u64,
    /// Misses by class, indexed per `MissClass::ALL`.
    misses: [u64; 4],
    mem_accesses: u64,
    bank_conflicts: u64,
    chimes: u64,
    last_miss_seq: Option<u64>,
    /// Taken out of the registry (when it already held them) and put back
    /// on drop.
    inter_miss_distance: Option<Histogram>,
    bank_wait_cycles: Option<Histogram>,
}

const INTER_MISS_DISTANCE: &str = "cache.inter_miss_distance";
const BANK_WAIT_CYCLES: &str = "mem.bank_wait_cycles";
/// `cache.miss.<class>`, indexed per `MissClass::ALL`.
const MISS_COUNTERS: [&str; 4] = [
    "cache.miss.compulsory",
    "cache.miss.capacity",
    "cache.miss.conflict_self",
    "cache.miss.conflict_cross",
];

impl<'a> MeteringSink<'a> {
    /// Wraps `inner`, accumulating into `metrics`.
    pub fn new(inner: &'a mut dyn TraceSink, metrics: &'a mut MetricsRegistry) -> Self {
        Self {
            inner,
            inter_miss_distance: metrics.take_histogram(INTER_MISS_DISTANCE),
            bank_wait_cycles: metrics.take_histogram(BANK_WAIT_CYCLES),
            metrics,
            cache_accesses: 0,
            cache_hits: 0,
            misses: [0; 4],
            mem_accesses: 0,
            bank_conflicts: 0,
            chimes: 0,
            last_miss_seq: None,
        }
    }
}

/// Records into `slot`, creating it with the registry's default bounds on
/// first use.
fn observe(slot: &mut Option<Histogram>, value: u64) {
    slot.get_or_insert_with(|| Histogram::new(&DEFAULT_BOUNDS))
        .observe(value);
}

impl TraceSink for MeteringSink<'_> {
    fn record(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::CacheAccess { seq, miss, .. } => {
                self.cache_accesses += 1;
                match miss {
                    Some(class) => {
                        self.misses[class.index()] += 1;
                        if let Some(prev) = self.last_miss_seq {
                            observe(&mut self.inter_miss_distance, seq.saturating_sub(prev));
                        }
                        self.last_miss_seq = Some(*seq);
                    }
                    None => self.cache_hits += 1,
                }
            }
            TraceEvent::BankAccess { wait, state, .. } => {
                self.mem_accesses += 1;
                observe(&mut self.bank_wait_cycles, *wait);
                if *state == BankEventKind::Busy {
                    self.bank_conflicts += 1;
                }
            }
            TraceEvent::PhaseEnd {
                kind: PhaseKind::Chime,
                ..
            } => self.chimes += 1,
            TraceEvent::PhaseBegin { .. } | TraceEvent::PhaseEnd { .. } => {}
        }
        self.inner.record(event);
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Drop for MeteringSink<'_> {
    /// Folds the typed state into the registry, with nothing that can
    /// panic.
    fn drop(&mut self) {
        let misses = self
            .misses
            .iter()
            .fold(0, |sum, &n| u64::saturating_add(sum, n));
        let counters = [
            ("cache.accesses", self.cache_accesses),
            ("cache.hits", self.cache_hits),
            ("cache.misses", misses),
            ("mem.accesses", self.mem_accesses),
            ("mem.bank_conflicts", self.bank_conflicts),
            ("machine.chimes", self.chimes),
        ];
        let by_class = MISS_COUNTERS.into_iter().zip(self.misses);
        for (name, n) in counters.into_iter().chain(by_class) {
            if n > 0 {
                self.metrics.count(name, n);
            }
        }
        if let Some(h) = self.inter_miss_distance.take() {
            self.metrics.put_histogram(INTER_MISS_DISTANCE, h);
        }
        if let Some(h) = self.bank_wait_cycles.take() {
            self.metrics.put_histogram(BANK_WAIT_CYCLES, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MissClass;

    fn ev(seq: u64) -> TraceEvent {
        TraceEvent::CacheAccess {
            seq,
            word: seq * 10,
            stream: 0,
            set: seq % 7,
            miss: seq.is_multiple_of(2).then_some(MissClass::Compulsory),
            evicted: None,
        }
    }

    #[test]
    fn null_sink_accepts_everything() {
        let mut s = NullSink;
        for i in 0..10 {
            s.record(&ev(i));
        }
        assert!(s.flush().is_ok());
    }

    #[test]
    fn ring_keeps_most_recent_in_order() {
        let mut ring = RingSink::new(3);
        for i in 0..10 {
            ring.record(&ev(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 7);
        let seqs: Vec<u64> = ring
            .events()
            .map(|e| match e {
                TraceEvent::CacheAccess { seq, .. } => *seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        assert_eq!(ring.into_events().len(), 3);
    }

    #[test]
    fn zero_capacity_ring_holds_nothing() {
        let mut ring = RingSink::new(0);
        ring.record(&ev(1));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.capacity(), 0);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::from_writer(Vec::new());
        let events = vec![
            ev(1),
            TraceEvent::BankAccess {
                bank: 3,
                addr: 11,
                requested: 1,
                wait: 3,
                state: BankEventKind::Busy,
            },
        ];
        for e in &events {
            sink.record(e);
        }
        assert_eq!(sink.written(), 2);
        let bytes = sink.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let parsed: Vec<TraceEvent> = text
            .lines()
            .map(|l| TraceEvent::from_jsonl(l).unwrap())
            .collect();
        assert_eq!(parsed, events);
    }

    struct FailingWriter;
    impl Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("disk gone"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn metering_sink_tees_and_derives_metrics() {
        let mut ring = RingSink::new(16);
        let mut metrics = MetricsRegistry::new();
        {
            let mut meter = MeteringSink::new(&mut ring, &mut metrics);
            meter.record(&ev(1)); // odd seq → hit
            meter.record(&ev(2)); // even seq → compulsory miss
            meter.record(&ev(3)); // hit
            meter.record(&TraceEvent::BankAccess {
                bank: 0,
                addr: 0,
                requested: 0,
                wait: 5,
                state: BankEventKind::Busy,
            });
            meter.record(&TraceEvent::PhaseEnd {
                kind: PhaseKind::Chime,
                sweep: 0,
                cycle: 1.0,
            });
            assert!(meter.flush().is_ok());
        }
        assert_eq!(ring.len(), 5); // everything forwarded
        assert_eq!(metrics.counter_value("cache.accesses"), 3);
        assert_eq!(metrics.counter_value("cache.misses"), 1);
        assert_eq!(metrics.counter_value("cache.hits"), 2);
        assert_eq!(metrics.counter_value("cache.miss.compulsory"), 1);
        assert_eq!(metrics.counter_value("mem.accesses"), 1);
        assert_eq!(metrics.counter_value("mem.bank_conflicts"), 1);
        assert_eq!(metrics.counter_value("machine.chimes"), 1);
        let snap = metrics.snapshot();
        assert!(snap
            .histograms
            .iter()
            .any(|h| h.name == "mem.bank_wait_cycles" && h.total == 1));
    }

    #[test]
    fn metering_sink_tracks_inter_miss_distance() {
        let mut null = NullSink;
        let mut metrics = MetricsRegistry::new();
        {
            let mut meter = MeteringSink::new(&mut null, &mut metrics);
            for seq in [2u64, 4, 10] {
                meter.record(&ev(seq)); // even seqs are misses
            }
        }
        let snap = metrics.snapshot();
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "cache.inter_miss_distance")
            .unwrap();
        assert_eq!(h.total, 2); // distances 2 and 6
        assert_eq!(h.sum, 8);
    }

    #[test]
    fn metering_sink_adds_to_what_the_registry_already_holds() {
        let mut null = NullSink;
        let mut metrics = MetricsRegistry::new();
        metrics.count("cache.accesses", 10);
        metrics.register_histogram("mem.bank_wait_cycles", &[4]);
        {
            let mut meter = MeteringSink::new(&mut null, &mut metrics);
            meter.record(&ev(1));
            for wait in [3, 5] {
                meter.record(&TraceEvent::BankAccess {
                    bank: 0,
                    addr: 0,
                    requested: 0,
                    wait,
                    state: BankEventKind::Free,
                });
            }
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("cache.accesses"), 11);
        // Only what was counted appears: no misses, no conflicts.
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["cache.accesses", "cache.hits", "mem.accesses"]);
        let waits = &snap.histograms[0];
        assert_eq!(
            (waits.name.as_str(), waits.bounds.as_slice()),
            ("mem.bank_wait_cycles", &[4][..])
        );
        assert_eq!(waits.counts, [1, 1]);
        assert_eq!(snap.histograms.len(), 1);
    }

    #[test]
    fn jsonl_sink_defers_io_errors_to_flush() {
        let mut sink = JsonlSink::from_writer(FailingWriter);
        sink.record(&ev(1));
        sink.record(&ev(2)); // silently skipped after first error
        assert_eq!(sink.written(), 0);
        assert!(TraceSink::flush(&mut sink).is_err());
        // Error consumed; subsequent flush succeeds.
        assert!(TraceSink::flush(&mut sink).is_ok());
    }
}
