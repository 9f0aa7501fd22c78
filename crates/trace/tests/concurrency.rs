//! Multi-writer stress tests for the shared metrics handle — the
//! `vcache serve` connection threads and worker pool share one registry,
//! so lost updates or torn snapshots here would surface as corrupt
//! `status` responses.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use vcache_trace::SharedMetrics;

const WRITERS: usize = 8;
const OPS_PER_WRITER: u64 = 2_000;

#[test]
fn no_lost_updates_across_writer_threads() {
    let metrics = SharedMetrics::new();
    let handles: Vec<_> = (0..WRITERS)
        .map(|_| {
            let metrics = metrics.clone();
            thread::spawn(move || {
                for i in 0..OPS_PER_WRITER {
                    metrics.count("serve.requests", 1);
                    metrics.observe("serve.latency_us", i % 4096);
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
