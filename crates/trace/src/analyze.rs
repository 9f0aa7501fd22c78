//! Post-hoc trace analysis: the engine behind `vcache analyze`.
//!
//! Consumes parsed [`TraceEvent`] streams and produces per-stream miss
//! timelines, bank occupancy tables, and conflict-set rankings, plus
//! plain-text renderings for the CLI.

use std::collections::BTreeMap;
use std::io::{self, BufRead, Read};

use crate::event::{BankEventKind, MissClass, ParseError, TraceEvent};

/// One window of a per-stream miss timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MissWindow {
    /// Accesses in this window (== window size except the last).
    pub accesses: u64,
    /// Misses by class, indexed per [`MissClass::ALL`].
    pub by_class: [u64; 4],
}

impl MissWindow {
    /// Total misses in the window.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.by_class.iter().sum()
    }

    /// Misses per 1000 accesses.
    #[must_use]
    pub fn misses_per_1k(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 * 1000.0 / self.accesses as f64
        }
    }
}

/// The miss history of one access stream, split into fixed windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissTimeline {
    /// Stream tag.
    pub stream: u32,
    /// Window size in accesses.
    pub window: u64,
    /// The windows, in access order.
    pub windows: Vec<MissWindow>,
}

impl MissTimeline {
    /// Total accesses across all windows.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.windows.iter().map(|w| w.accesses).sum()
    }

    /// Total misses across all windows.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.windows.iter().map(MissWindow::misses).sum()
    }
}

/// Builds per-stream miss timelines from cache events, windowed every
/// `window` accesses (per stream). Streams are returned in tag order.
///
/// # Panics
///
/// Panics if `window` is 0.
#[must_use]
pub fn miss_timelines(events: &[TraceEvent], window: u64) -> Vec<MissTimeline> {
    assert!(window > 0, "window must be at least 1 access");
    let mut per_stream: BTreeMap<u32, Vec<MissWindow>> = BTreeMap::new();
    for event in events {
        let TraceEvent::CacheAccess { stream, miss, .. } = event else {
            continue;
        };
        let windows = per_stream.entry(*stream).or_default();
        if windows.last().is_none_or(|w| w.accesses >= window) {
            windows.push(MissWindow::default());
        }
        let Some(current) = windows.last_mut() else {
            continue; // unreachable: a window was pushed just above
        };
        current.accesses += 1;
        if let Some(class) = miss {
            current.by_class[class.index()] += 1;
        }
    }
    per_stream
        .into_iter()
        .map(|(stream, windows)| MissTimeline {
            stream,
            window,
            windows,
        })
        .collect()
}

/// Occupancy of one memory bank over a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BankRow {
    /// Bank index.
    pub bank: u64,
    /// Accesses served.
    pub accesses: u64,
    /// Accesses that found the bank busy.
    pub busy_hits: u64,
    /// Total cycles accesses waited for this bank.
    pub wait_cycles: u64,
}

/// Aggregates bank events into a per-bank occupancy table, ordered by
/// bank index.
#[must_use]
pub fn bank_occupancy(events: &[TraceEvent]) -> Vec<BankRow> {
    let mut per_bank: BTreeMap<u64, BankRow> = BTreeMap::new();
    for event in events {
        let TraceEvent::BankAccess {
            bank, wait, state, ..
        } = event
        else {
            continue;
        };
        let row = per_bank.entry(*bank).or_insert(BankRow {
            bank: *bank,
            ..BankRow::default()
        });
        row.accesses += 1;
        row.wait_cycles += wait;
        if *state == BankEventKind::Busy {
            row.busy_hits += 1;
        }
    }
    per_bank.into_values().collect()
}

/// The `n` set indices with the most conflict misses (self + cross),
/// most-conflicted first; ties broken by lower set index.
#[must_use]
pub fn top_conflict_sets(events: &[TraceEvent], n: usize) -> Vec<(u64, u64)> {
    let mut per_set: BTreeMap<u64, u64> = BTreeMap::new();
    for event in events {
        if let TraceEvent::CacheAccess {
            set,
            miss: Some(MissClass::ConflictSelf | MissClass::ConflictCross),
            ..
        } = event
        {
            *per_set.entry(*set).or_insert(0) += 1;
        }
    }
    let mut ranked: Vec<(u64, u64)> = per_set.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(n);
    ranked
}

/// What [`read_jsonl`] found: the parsed events, plus the 1-indexed line
/// numbers (and errors) of any lines that failed to parse.
pub type ReadOutcome = (Vec<TraceEvent>, Vec<(usize, ParseError)>);

/// The longest line [`read_jsonl`] buffers. The longest line either
/// writer emits is under 400 bytes.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Reads a JSONL trace, returning the events and the per-line failures
/// (blank lines are skipped silently). Corruption never aborts the
/// read: a line that is invalid UTF-8, torn JSON, truncated mid-record,
/// or longer than 64 KiB becomes a [`ParseError`] entry with its
/// 1-indexed line number, and reading continues with the next line. An
/// over-long line's bytes are skipped, not buffered, so memory stays
/// bounded whatever the input. Even a mid-stream read error is recorded
/// as a failure on the line where it occurred (the events gathered up to
/// that point are preserved).
///
/// # Errors
///
/// None in practice — the `io::Result` wrapper is kept for API
/// stability; all failure modes are reported through [`ReadOutcome`].
pub fn read_jsonl(reader: impl BufRead) -> io::Result<ReadOutcome> {
    let mut reader = reader;
    let mut events = Vec::new();
    let mut failures = Vec::new();
    let mut buf = Vec::new();
    let mut lineno = 0usize;
    loop {
        lineno += 1;
        buf.clear();
        // One byte past the cap tells an over-long line from one that
        // just fits; the rest of an over-long line is skipped unbuffered.
        let read = (&mut reader)
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut buf);
        let overlong = buf.len() > MAX_LINE_BYTES && buf.last() != Some(&b'\n');
        let read = match read {
            Ok(_) if overlong => reader.skip_until(b'\n').map(|_| buf.len()),
            other => other,
        };
        match read {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                // A torn read (e.g. a device error mid-file): report it
                // on this line and stop; earlier events survive.
                failures.push((lineno, ParseError::Malformed(format!("read error: {e}"))));
                break;
            }
        }
        let parsed = if overlong {
            Err(ParseError::Malformed(format!(
                "line longer than {MAX_LINE_BYTES} bytes"
            )))
        } else {
            let Ok(line) = std::str::from_utf8(&buf) else {
                failures.push((lineno, ParseError::Malformed("invalid UTF-8".into())));
                continue;
            };
            let line = line.trim_end_matches(['\n', '\r']);
            if line.trim().is_empty() {
                continue;
            }
            TraceEvent::from_jsonl(line)
        };
        match parsed {
            Ok(ev) => events.push(ev),
            Err(e) => failures.push((lineno, e)),
        }
    }
    Ok((events, failures))
}

/// Renders miss timelines as a fixed-width text table.
#[must_use]
pub fn render_timelines(timelines: &[MissTimeline]) -> String {
    let mut out = String::new();
    if timelines.is_empty() {
        out.push_str("no cache events in trace\n");
        return out;
    }
    for tl in timelines {
        out.push_str(&format!(
            "stream {} — {} accesses, {} misses (window = {} accesses)\n",
            tl.stream,
            tl.accesses(),
            tl.misses(),
            tl.window,
        ));
        out.push_str(
            "  window      accesses  miss/1k  compulsory  capacity  conf-self  conf-cross\n",
        );
        for (i, w) in tl.windows.iter().enumerate() {
            out.push_str(&format!(
                "  {:<10}  {:>8}  {:>7.1}  {:>10}  {:>8}  {:>9}  {:>10}\n",
                i,
                w.accesses,
                w.misses_per_1k(),
                w.by_class[0],
                w.by_class[1],
                w.by_class[2],
                w.by_class[3],
            ));
        }
    }
    out
}

/// Renders the bank occupancy table as fixed-width text.
#[must_use]
pub fn render_bank_table(rows: &[BankRow]) -> String {
    let mut out = String::new();
    if rows.is_empty() {
        out.push_str("no bank events in trace\n");
        return out;
    }
    let total_accesses: u64 = rows.iter().map(|r| r.accesses).sum();
    out.push_str(&format!(
        "bank occupancy — {} accesses over {} banks\n",
        total_accesses,
        rows.len()
    ));
    out.push_str("  bank  accesses  busy-hits  wait-cycles  share\n");
    for r in rows {
        let share = if total_accesses == 0 {
            0.0
        } else {
            r.accesses as f64 * 100.0 / total_accesses as f64
        };
        out.push_str(&format!(
            "  {:>4}  {:>8}  {:>9}  {:>11}  {:>4.1}%\n",
            r.bank, r.accesses, r.busy_hits, r.wait_cycles, share,
        ));
    }
    out
}

/// Renders the conflict-set ranking as fixed-width text.
#[must_use]
pub fn render_conflict_sets(ranked: &[(u64, u64)]) -> String {
    let mut out = String::new();
    if ranked.is_empty() {
        out.push_str("no conflict misses in trace\n");
        return out;
    }
    out.push_str(&format!("top {} conflicting sets\n", ranked.len()));
    out.push_str("  set      conflict-misses\n");
    for (set, misses) in ranked {
        out.push_str(&format!("  {set:<7}  {misses:>15}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_ev(seq: u64, stream: u32, set: u64, miss: Option<MissClass>) -> TraceEvent {
        TraceEvent::CacheAccess {
            seq,
            word: seq,
            stream,
            set,
            miss,
            evicted: None,
        }
    }

    fn bank_ev(bank: u64, wait: u64) -> TraceEvent {
        TraceEvent::BankAccess {
            bank,
            addr: bank,
            requested: 0,
            wait,
            state: if wait > 0 {
                BankEventKind::Busy
            } else {
                BankEventKind::Free
            },
        }
    }

    #[test]
    fn timelines_window_per_stream() {
        let mut events = Vec::new();
        for i in 0..5 {
            events.push(cache_ev(i, 0, 0, Some(MissClass::Compulsory)));
        }
        for i in 0..3 {
            events.push(cache_ev(10 + i, 1, 0, None));
        }
        let tls = miss_timelines(&events, 2);
        assert_eq!(tls.len(), 2);
        assert_eq!(tls[0].stream, 0);
        assert_eq!(tls[0].windows.len(), 3); // 2 + 2 + 1
        assert_eq!(tls[0].windows[2].accesses, 1);
        assert_eq!(tls[0].misses(), 5);
        assert_eq!(tls[1].misses(), 0);
        assert_eq!(tls[0].windows[0].misses_per_1k(), 1000.0);
    }

    #[test]
    fn empty_window_rate_is_zero() {
        assert_eq!(MissWindow::default().misses_per_1k(), 0.0);
    }

    #[test]
    fn bank_occupancy_aggregates() {
        let events = vec![bank_ev(0, 0), bank_ev(0, 3), bank_ev(2, 0)];
        let rows = bank_occupancy(&events);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].bank, 0);
        assert_eq!(rows[0].accesses, 2);
        assert_eq!(rows[0].busy_hits, 1);
        assert_eq!(rows[0].wait_cycles, 3);
        assert_eq!(rows[1].bank, 2);
    }

    #[test]
    fn conflict_ranking_orders_and_truncates() {
        let events = vec![
            cache_ev(0, 0, 5, Some(MissClass::ConflictSelf)),
            cache_ev(1, 0, 5, Some(MissClass::ConflictCross)),
            cache_ev(2, 0, 9, Some(MissClass::ConflictSelf)),
            cache_ev(3, 0, 1, Some(MissClass::Compulsory)), // not a conflict
            cache_ev(4, 0, 3, Some(MissClass::ConflictSelf)),
        ];
        let top = top_conflict_sets(&events, 2);
        assert_eq!(top, vec![(5, 2), (3, 1)]); // tie 9 vs 3 → lower set
        assert!(top_conflict_sets(&events[3..4], 5).is_empty());
    }

    #[test]
    fn read_jsonl_collects_events_and_failures() {
        let good = cache_ev(1, 0, 0, None).to_jsonl();
        let text = format!("{good}\n\nnot json\n{good}\n");
        let (events, failures) = read_jsonl(text.as_bytes()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, 3);
    }

    #[test]
    fn read_jsonl_survives_torn_and_non_utf8_lines() {
        let good = cache_ev(1, 0, 0, None).to_jsonl();
        // Line 2 is invalid UTF-8, line 3 is a record torn mid-way, and
        // the final line is truncated (no trailing newline) — all must
        // be reported without losing the good lines around them.
        let torn = &good[..good.len() / 2];
        let mut bytes = Vec::new();
        bytes.extend_from_slice(good.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(&[0xff, 0xfe, 0x80, b'\n']);
        bytes.extend_from_slice(torn.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(good.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(torn.as_bytes()); // EOF mid-record
        let (events, failures) = read_jsonl(bytes.as_slice()).unwrap();
        assert_eq!(events.len(), 2);
        let lines: Vec<usize> = failures.iter().map(|(n, _)| *n).collect();
        assert_eq!(lines, vec![2, 3, 5]);
        assert!(failures[0].1.to_string().contains("UTF-8"));
    }

    #[test]
    fn read_jsonl_reports_mid_stream_read_errors_without_losing_events() {
        struct FailAfter<'a> {
            first: &'a [u8],
            done: bool,
        }
        impl io::Read for FailAfter<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if !self.first.is_empty() {
                    let n = self.first.len().min(out.len());
                    out[..n].copy_from_slice(&self.first[..n]);
                    self.first = &self.first[n..];
                    return Ok(n);
                }
                if self.done {
                    return Ok(0);
                }
                self.done = true;
                Err(io::Error::other("device torn away"))
            }
        }
        let good = cache_ev(1, 0, 0, None).to_jsonl();
        let text = format!("{good}\n{good}\n");
        let reader = io::BufReader::new(FailAfter {
            first: text.as_bytes(),
            done: false,
        });
        let (events, failures) = read_jsonl(reader).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].1.to_string().contains("device torn away"));
    }

    #[test]
    fn a_megabyte_multibyte_line_is_rejected_in_linear_time() {
        let line = format!("{{\"ev\":\"{}\"}}", "é".repeat(1 << 19));
        assert!(line.len() > 1 << 20);
        let started = std::time::Instant::now();
        assert!(matches!(
            TraceEvent::from_jsonl(&line),
            Err(ParseError::BadValue("ev", v)) if v.len() == 1 << 20
        ));
        let (events, failures) = read_jsonl(line.as_bytes()).unwrap();
        assert!(events.is_empty());
        assert_eq!(
            failures,
            vec![(
                1,
                ParseError::Malformed("line longer than 65536 bytes".into())
            )]
        );
        // Quadratic work on this line takes minutes.
        let took = started.elapsed();
        assert!(took < std::time::Duration::from_secs(2), "{took:?}");
    }

    #[test]
    fn an_over_long_line_is_one_failure_and_is_not_buffered() {
        let good = format!("{}\n", cache_ev(1, 0, 0, None).to_jsonl());
        // 16 MiB of ASCII on line 2, streamed: neither the test nor the
        // reader holds it in memory.
        let file = io::BufReader::new(
            good.as_bytes()
                .chain(io::repeat(b'x').take(16 << 20))
                .chain("\n".as_bytes())
                .chain(good.as_bytes()),
        );
        let (events, failures) = read_jsonl(file).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            failures,
            vec![(
                2,
                ParseError::Malformed("line longer than 65536 bytes".into())
            )]
        );
        // The cap is exclusive of the newline: a line of exactly 64 KiB
        // is parsed (and fails as JSON, not for its length).
        let fits = format!("{}\n{good}", " ".repeat(MAX_LINE_BYTES - 1) + "x");
        let (events, failures) = read_jsonl(fits.as_bytes()).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(
            failures,
            vec![(1, ParseError::Malformed("expected '{'".into()))]
        );
    }

    #[test]
    fn renderers_produce_tables() {
        let events = vec![
            cache_ev(0, 0, 5, Some(MissClass::ConflictSelf)),
            bank_ev(1, 2),
        ];
        let tl = render_timelines(&miss_timelines(&events, 10));
        assert!(tl.contains("stream 0"));
        assert!(tl.contains("miss/1k"));
        let bt = render_bank_table(&bank_occupancy(&events));
        assert!(bt.contains("bank occupancy"));
        let cs = render_conflict_sets(&top_conflict_sets(&events, 5));
        assert!(cs.contains("top 1 conflicting sets"));
        assert!(render_timelines(&[]).contains("no cache events"));
        assert!(render_bank_table(&[]).contains("no bank events"));
        assert!(render_conflict_sets(&[]).contains("no conflict misses"));
    }
}
