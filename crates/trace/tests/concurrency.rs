//! Multi-writer stress tests for the shared metrics/sink handles — the
//! `vcache serve` worker pool shares one registry and one flight
//! recorder across threads, so lost updates or torn snapshots here
//! would surface as corrupt `status` responses.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use vcache_trace::{MissClass, RingSink, SharedMetrics, SharedSink, TraceEvent, TraceSink};

const WRITERS: usize = 8;
const OPS_PER_WRITER: u64 = 2_000;

fn ev(seq: u64) -> TraceEvent {
    TraceEvent::CacheAccess {
        seq,
        word: seq,
        stream: 0,
        set: seq % 31,
        miss: Some(MissClass::ConflictSelf),
        evicted: None,
    }
}

#[test]
fn no_lost_updates_across_writer_threads() {
    let metrics = SharedMetrics::new();
    let sink = SharedSink::new(RingSink::new(1 << 10));
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let metrics = metrics.clone();
            let mut sink = sink.clone();
            thread::spawn(move || {
                for i in 0..OPS_PER_WRITER {
                    metrics.count("serve.requests", 1);
                    metrics.observe("serve.latency_us", i % 4096);
                    sink.record(&ev(w as u64 * OPS_PER_WRITER + i));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer panicked");
    }
    let expected = WRITERS as u64 * OPS_PER_WRITER;
    assert_eq!(metrics.counter_value("serve.requests"), expected);
    let snap = metrics.snapshot();
    let hist = snap
        .histograms
        .iter()
        .find(|h| h.name == "serve.latency_us")
        .expect("histogram exists");
    assert_eq!(hist.total, expected);
    assert_eq!(hist.counts.iter().sum::<u64>(), expected);
    // The ring accounts for every record: retained + dropped.
    let (len, dropped) = sink.with(|r| (r.len() as u64, r.dropped()));
    assert_eq!(len + dropped, expected);
}

#[test]
fn snapshots_are_never_torn_under_concurrent_writes() {
    let metrics = SharedMetrics::new();
    let stop = Arc::new(AtomicBool::new(false));
    // Each writer bumps two counters inside one locked section; any
    // snapshot observing them unequal was torn mid-update.
    let writers: Vec<_> = (0..4)
        .map(|_| {
            let metrics = metrics.clone();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    metrics.with(|m| {
                        m.count("pair.a", 1);
                        m.count("pair.b", 1);
                    });
                }
            })
        })
        .collect();
    // Snapshot only once the writers run, and keep going until the
    // counters move between snapshots, so the check provably overlaps
    // concurrent writes instead of racing ahead of the writer threads.
    let deadline = Instant::now() + Duration::from_secs(60);
    while metrics.counter_value("pair.a") == 0 {
        assert!(Instant::now() < deadline, "writers never ran");
        thread::yield_now();
    }
    let first = metrics.snapshot().counter("pair.a");
    let mut taken = 0;
    loop {
        let snap = metrics.snapshot();
        assert_eq!(
            snap.counter("pair.a"),
            snap.counter("pair.b"),
            "torn snapshot: paired counters diverged"
        );
        taken += 1;
        if taken >= 500 && snap.counter("pair.a") > first {
            break;
        }
        assert!(Instant::now() < deadline, "counters never advanced");
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().expect("writer panicked");
    }
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("pair.a"), snap.counter("pair.b"));
    assert!(snap.counter("pair.a") > 0);
}
