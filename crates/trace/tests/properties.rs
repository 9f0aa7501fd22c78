//! Property tests for the trace layer: the ring buffer never exceeds its
//! capacity and keeps the most recent events in order, histogram counts
//! always sum to the observation total, the JSONL wire format
//! round-trips every event unchanged, and arbitrary or damaged trace
//! bytes come back as events or typed per-line errors, never a panic.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use vcache_trace::{
    analyze, BankEventKind, Histogram, MissClass, PhaseKind, RingSink, TraceEvent, TraceSink,
};

/// A strategy covering every `TraceEvent` variant and every field shape
/// (hits and all four miss classes, free and busy banks, both phase
/// kinds).
fn arb_event() -> impl Strategy<Value = TraceEvent> {
    (
        0u8..6,
        any::<u64>(),
        0u32..64,
        0u64..10_000,
        0u64..8,
        any::<f64>(),
    )
        .prop_map(|(kind, big, stream, small, class, frac)| match kind {
            0 | 1 => TraceEvent::CacheAccess {
                seq: big,
                word: big.rotate_left(17),
                stream,
                set: small,
                miss: match class {
                    0 => None,
                    1 => Some(MissClass::Compulsory),
                    2 => Some(MissClass::Capacity),
                    3 => Some(MissClass::ConflictSelf),
                    _ => Some(MissClass::ConflictCross),
                },
                evicted: if class % 2 == 0 {
                    None
                } else {
                    Some(small * 3)
                },
            },
            2 | 3 => TraceEvent::BankAccess {
                bank: small % 64,
                addr: big,
                requested: small,
                wait: class * 7,
                state: if class == 0 {
                    BankEventKind::Free
                } else {
                    BankEventKind::Busy
                },
            },
            4 => TraceEvent::PhaseBegin {
                kind: if class % 2 == 0 {
                    PhaseKind::Chime
                } else {
                    PhaseKind::Program
                },
                sweep: small,
                cycle: frac * 1e9,
            },
            _ => TraceEvent::PhaseEnd {
                kind: if class % 2 == 0 {
                    PhaseKind::Chime
                } else {
                    PhaseKind::Program
                },
                sweep: small,
                cycle: frac * 1e9,
            },
        })
}

/// `line` cut to `cut` bytes (when shorter), then each `(at, byte)`
/// overwriting the byte at `at` modulo the length: a torn or corrupted
/// trace line.
fn damage(line: &str, cut: usize, flips: &[(usize, u8)]) -> Vec<u8> {
    let mut bytes = line.as_bytes().to_vec();
    bytes.truncate(cut);
    if !bytes.is_empty() {
        let len = bytes.len();
        for &(at, byte) in flips {
            bytes[at % len] = byte;
        }
    }
    bytes
}

/// Reads `file` and checks the reader's accounting: every line that is
/// not blank yields exactly one event or one failure, failures name
/// their lines in order, and every event re-serializes to itself.
fn reads_every_line_or_reports_it(file: &[u8]) -> Result<(), TestCaseError> {
    let (events, failures) = analyze::read_jsonl(file).unwrap();
    let mut lines: Vec<&[u8]> = file.split(|&b| b == b'\n').collect();
    if file.ends_with(b"\n") || file.is_empty() {
        lines.pop();
    }
    let blank = lines
        .iter()
        .filter(|l| std::str::from_utf8(l).is_ok_and(|t| t.trim().is_empty()))
        .count();
    prop_assert_eq!(events.len() + failures.len(), lines.len() - blank);
    let numbers: Vec<usize> = failures.iter().map(|(n, _)| *n).collect();
    prop_assert!(numbers.windows(2).all(|w| w[0] < w[1]), "{:?}", numbers);
    prop_assert!(numbers.iter().all(|&n| (1..=lines.len()).contains(&n)));
    for e in &events {
        let again = TraceEvent::from_jsonl(&e.to_jsonl());
        prop_assert_eq!(again.as_ref(), Ok(e));
    }
    Ok(())
}

proptest! {
    #[test]
    fn arbitrary_bytes_are_events_or_typed_line_errors(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        if let Err(e) = TraceEvent::from_jsonl(&String::from_utf8_lossy(&bytes)) {
            prop_assert!(!e.to_string().is_empty());
        }
        reads_every_line_or_reports_it(&bytes)?;
    }

    #[test]
    fn damaged_trace_lines_are_events_or_typed_line_errors(
        events in prop::collection::vec(arb_event(), 1..12),
        cuts in prop::collection::vec(0usize..200, 12),
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 0..6),
    ) {
        let mut file = Vec::new();
        for (i, e) in events.iter().enumerate() {
            let line = e.to_jsonl();
            let flips = if i % 2 == 0 { &flips[..] } else { &[] };
            let bytes = damage(&line, cuts[i], flips);
            if let Err(err) = TraceEvent::from_jsonl(&String::from_utf8_lossy(&bytes)) {
                prop_assert!(!err.to_string().is_empty());
            }
            file.extend_from_slice(&bytes);
            file.push(b'\n');
        }
        reads_every_line_or_reports_it(&file)?;
    }

    #[test]
    fn ring_never_exceeds_capacity_and_keeps_recent_order(
        events in prop::collection::vec(arb_event(), 0..200),
        cap in 0usize..40,
    ) {
        let mut ring = RingSink::new(cap);
        for e in &events {
            ring.record(e);
        }
        prop_assert!(ring.len() <= cap);
        let kept: Vec<TraceEvent> = ring.events().cloned().collect();
        let start = events.len().saturating_sub(cap);
        prop_assert_eq!(ring.dropped(), start as u64);
        prop_assert_eq!(kept.len(), events.len() - start);
        for (k, e) in kept.iter().zip(&events[start..]) {
            prop_assert_eq!(k, e);
        }
    }

    #[test]
    fn histogram_counts_sum_to_total(
        values in prop::collection::vec(any::<u64>(), 0..300),
        bound_seed in 1u64..1000,
    ) {
        let bounds = [bound_seed, bound_seed * 2, bound_seed * 4, bound_seed * 9];
        let mut h = Histogram::new(&bounds);
        for &v in &values {
            h.observe(v);
        }
        prop_assert_eq!(h.total(), values.len() as u64);
        prop_assert_eq!(h.counts().iter().sum::<u64>(), values.len() as u64);
        // One bucket per bound plus the overflow bucket.
        prop_assert_eq!(h.counts().len(), bounds.len() + 1);
    }

    #[test]
    fn jsonl_roundtrips_every_event(events in prop::collection::vec(arb_event(), 0..60)) {
        // Line-by-line: parse(to_jsonl(e)) == e.
        for e in &events {
            let line = e.to_jsonl();
            let back = TraceEvent::from_jsonl(&line);
            prop_assert_eq!(back.as_ref(), Ok(e), "line was: {}", line);
        }
        // Whole-file: the analyze reader sees the same sequence with no
        // parse errors.
        let text: String = events.iter().map(|e| e.to_jsonl() + "\n").collect();
        let (parsed, errors) = analyze::read_jsonl(text.as_bytes()).unwrap();
        prop_assert!(errors.is_empty(), "unexpected parse errors: {:?}", errors);
        prop_assert_eq!(parsed, events);
    }
}
