//! Pipelined vector access streams over the banked memory.
//!
//! The processor side of the paper's MM-model: a vector load issues one
//! element address per cycle on its read bus; an element whose bank is
//! still busy blocks the bus (and therefore all later elements of the
//! stream) until the bank frees. Two simultaneous loads (double-stream
//! SAXPY-style access) ride the two read buses and contend for banks.

use serde::{Deserialize, Serialize};
use vcache_trace::{BankEventKind, NullSink, TraceEvent, TraceSink};

use crate::banks::{InterleavedMemory, MemoryConfig};

/// One strided vector access stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StreamSpec {
    /// Word address of element 0.
    pub base: u64,
    /// Stride in words between consecutive elements.
    pub stride: u64,
    /// Number of elements.
    pub length: u64,
}

impl StreamSpec {
    /// Word address of element `i`.
    ///
    /// Wrapping arithmetic: address spaces in the simulator are cyclic.
    #[must_use]
    pub fn address(&self, i: u64) -> u64 {
        self.base.wrapping_add(i.wrapping_mul(self.stride))
    }
}

/// Outcome of streaming one vector through memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamOutcome {
    /// Cycle the last element's data arrives.
    pub finish_time: u64,
    /// Total cycles the issue pipeline was blocked on busy banks.
    pub stall_cycles: u64,
    /// Elements transferred.
    pub elements: u64,
}

impl StreamOutcome {
    /// Average stall cycles per element.
    #[must_use]
    pub fn stalls_per_element(&self) -> f64 {
        if self.elements == 0 {
            0.0
        } else {
            self.stall_cycles as f64 / self.elements as f64
        }
    }
}

/// Streams a single vector of `length` elements with stride `stride` from
/// `base`, issuing one element per cycle on one read bus.
///
/// Element `i` cannot issue before cycle `i` (bus pipelining) nor before its
/// predecessor issued (in-order issue), nor while its bank is busy; the
/// simulator charges every deferral beyond the bus slot as stall.
///
/// # Example
///
/// ```
/// use vcache_mem::{simulate_single_stream, BankingScheme, MemoryConfig};
///
/// let cfg = MemoryConfig::new(32, 16, BankingScheme::LowOrderInterleave)?;
/// // Stride 32 puts every element in the same bank: each of the remaining
/// // 63 elements waits t_m - 1 = 15 cycles.
/// let out = simulate_single_stream(&cfg, 0, 32, 64);
/// assert_eq!(out.stall_cycles, 63 * 15);
/// # Ok::<(), vcache_mem::MemoryConfigError>(())
/// ```
#[must_use]
pub fn simulate_single_stream(
    config: &MemoryConfig,
    base: u64,
    stride: u64,
    length: u64,
) -> StreamOutcome {
    // Over NullSink the event plumbing folds away.
    simulate_single_stream_traced(config, base, stride, length, &mut NullSink)
}

/// [`simulate_single_stream`] with every bank access emitted into `sink`
/// as a [`TraceEvent::BankAccess`].
pub fn simulate_single_stream_traced<S: TraceSink + ?Sized>(
    config: &MemoryConfig,
    base: u64,
    stride: u64,
    length: u64,
    sink: &mut S,
) -> StreamOutcome {
    let mut mem = InterleavedMemory::new(*config);
    let spec = StreamSpec {
        base,
        stride,
        length,
    };
    let mut next_free_slot = 0u64; // bus: one issue per cycle, in order
    let mut stalls = 0u64;
    let mut finish = 0u64;
    for i in 0..length {
        let addr = spec.address(i);
        let requested = next_free_slot.max(i);
        let out = mem.access(addr, requested);
        // Stall = time the bus sat idle waiting for the bank, beyond the
        // earliest cycle this element could have issued anyway.
        let wait = out.issue_time - requested;
        sink.record(&TraceEvent::BankAccess {
            bank: config.bank_of(addr),
            addr,
            requested,
            wait,
            state: if wait > 0 {
                BankEventKind::Busy
            } else {
                BankEventKind::Free
            },
        });
        stalls += wait;
        next_free_slot = out.issue_time + 1;
        finish = finish.max(out.complete_time);
    }
    StreamOutcome {
        finish_time: finish,
        stall_cycles: stalls,
        elements: length,
    }
}

/// Outcome of streaming two vectors concurrently on the two read buses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DualStreamOutcome {
    /// Per-stream outcomes.
    pub streams: [StreamOutcome; 2],
    /// Stall cycles attributable to inter-stream bank conflicts, i.e. total
    /// stalls minus what each stream suffers running alone.
    pub cross_stall_cycles: u64,
}

impl DualStreamOutcome {
    /// Total stall cycles across both streams.
    #[must_use]
    pub fn total_stalls(&self) -> u64 {
        self.streams[0].stall_cycles + self.streams[1].stall_cycles
    }

    /// Completion cycle of the later stream.
    #[must_use]
    pub fn finish_time(&self) -> u64 {
        self.streams[0].finish_time.max(self.streams[1].finish_time)
    }
}

/// Streams two vectors concurrently, one per read bus, banks shared.
///
/// Bank arbitration is cycle-ordered with stream 0 winning ties — the same
/// fixed-priority arbiter a real dual-bus memory controller would use.
/// `cross_stall_cycles` isolates the cross-interference component `I_c^M`
/// by re-running each stream alone and subtracting.
#[must_use]
pub fn simulate_dual_stream(
    config: &MemoryConfig,
    first: StreamSpec,
    second: StreamSpec,
) -> DualStreamOutcome {
    simulate_dual_stream_traced(config, first, second, &mut NullSink)
}

/// [`simulate_dual_stream`] with every bank access of the contended run
/// emitted into `sink` (the solo re-runs used to isolate
/// cross-interference are not traced).
pub fn simulate_dual_stream_traced<S: TraceSink + ?Sized>(
    config: &MemoryConfig,
    first: StreamSpec,
    second: StreamSpec,
    sink: &mut S,
) -> DualStreamOutcome {
    let mut mem = InterleavedMemory::new(*config);
    let mut cursor = [0u64; 2]; // next element index per stream
    let mut next_slot = [0u64; 2]; // next bus cycle per stream
    let mut stalls = [0u64; 2];
    let mut finish = [0u64; 2];
    let specs = [first, second];

    // Event loop: at each step issue the stream whose next possible issue
    // time is earliest (ties to stream 0), until both are drained.
    loop {
        let mut best: Option<(usize, u64)> = None;
        for s in 0..2 {
            if cursor[s] >= specs[s].length {
                continue;
            }
            let ideal = cursor[s].max(next_slot[s]);
            let ready = ideal.max(mem.bank_free_at(specs[s].address(cursor[s])));
            match best {
                Some((_, t)) if t <= ready => {}
                _ => best = Some((s, ready)),
            }
        }
        let Some((s, _)) = best else { break };
        let i = cursor[s];
        let addr = specs[s].address(i);
        let requested = i.max(next_slot[s]);
        let out = mem.access(addr, requested);
        let wait = out.issue_time - requested;
        sink.record(&TraceEvent::BankAccess {
            bank: config.bank_of(addr),
            addr,
            requested,
            wait,
            state: if wait > 0 {
                BankEventKind::Busy
            } else {
                BankEventKind::Free
            },
        });
        stalls[s] += wait;
        next_slot[s] = out.issue_time + 1;
        finish[s] = finish[s].max(out.complete_time);
        cursor[s] += 1;
    }

    let solo: Vec<u64> = specs
        .iter()
        .map(|sp| simulate_single_stream(config, sp.base, sp.stride, sp.length).stall_cycles)
        .collect();
    let total = stalls[0] + stalls[1];
    let cross = total.saturating_sub(solo[0] + solo[1]);

    DualStreamOutcome {
        streams: [
            StreamOutcome {
                finish_time: finish[0],
                stall_cycles: stalls[0],
                elements: specs[0].length,
            },
            StreamOutcome {
                finish_time: finish[1],
                stall_cycles: stalls[1],
                elements: specs[1].length,
            },
        ],
        cross_stall_cycles: cross,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banks::BankingScheme;

    fn cfg(banks: u64, tm: u64) -> MemoryConfig {
        MemoryConfig::new(banks, tm, BankingScheme::LowOrderInterleave).unwrap()
    }

    #[test]
    fn unit_stride_never_stalls_when_banks_cover_latency() {
        // t_m <= M: by the time the stream wraps to bank 0 it is free.
        for (m, tm) in [(32u64, 16u64), (32, 32), (8, 8), (64, 20)] {
            let out = simulate_single_stream(&cfg(m, tm), 0, 1, 256);
            assert_eq!(out.stall_cycles, 0, "M={m} tm={tm}");
        }
    }

    #[test]
    fn unit_stride_stalls_when_latency_exceeds_banks() {
        // t_m > M: every sweep of M elements stalls t_m - M cycles.
        let out = simulate_single_stream(&cfg(8, 12), 0, 1, 64);
        // 8 sweeps; the first is free, each later sweep catches bank 0
        // still busy. Steady state: one stall of (t_m - M) per sweep.
        assert_eq!(out.stall_cycles, (64 / 8 - 1) * (12 - 8));
    }

    #[test]
    fn same_bank_stride_serialises() {
        let out = simulate_single_stream(&cfg(32, 16), 0, 32, 64);
        assert_eq!(out.stall_cycles, 63 * 15);
        assert_eq!(out.finish_time, 63 * 16 + 16);
    }

    #[test]
    fn sweep_stall_matches_paper_formula_per_sweep() {
        // stride 8 on 32 banks: 4 distinct banks. Each sweep beyond the
        // window stalls t_m - 4 cycles.
        let (m, tm, mvl) = (32u64, 16u64, 64u64);
        let out = simulate_single_stream(&cfg(m, tm), 0, 8, mvl);
        let banks_visited = m / vcache_mersenne::numtheory::gcd(m, 8);
        let sweeps = mvl / banks_visited;
        let expected = (sweeps - 1) * (tm - banks_visited);
        // First sweep issues cleanly; each of the remaining sweeps stalls
        // (tm - banks_visited) once as it catches its own tail.
        assert_eq!(out.stall_cycles, expected);
    }

    #[test]
    fn zero_length_stream() {
        let out = simulate_single_stream(&cfg(8, 4), 0, 1, 0);
        assert_eq!(out.elements, 0);
        assert_eq!(out.stall_cycles, 0);
        assert_eq!(out.finish_time, 0);
        assert_eq!(out.stalls_per_element(), 0.0);
    }

    #[test]
    fn dual_disjoint_banks_no_cross_stalls() {
        // Stream 0 on even banks, stream 1 on odd banks.
        let out = simulate_dual_stream(
            &cfg(8, 4),
            StreamSpec {
                base: 0,
                stride: 2,
                length: 32,
            },
            StreamSpec {
                base: 1,
                stride: 2,
                length: 32,
            },
        );
        assert_eq!(out.cross_stall_cycles, 0);
    }

    #[test]
    fn dual_identical_streams_fully_interfere() {
        let spec = StreamSpec {
            base: 0,
            stride: 1,
            length: 32,
        };
        let out = simulate_dual_stream(&cfg(32, 16), spec, spec);
        // Alone, each stream is stall-free; together they fight for every
        // bank, so all stalls are cross-interference.
        assert!(out.cross_stall_cycles > 0);
        assert_eq!(out.cross_stall_cycles, out.total_stalls());
    }

    #[test]
    fn dual_outcome_accessors() {
        let out = simulate_dual_stream(
            &cfg(8, 4),
            StreamSpec {
                base: 0,
                stride: 2,
                length: 8,
            },
            StreamSpec {
                base: 1,
                stride: 2,
                length: 4,
            },
        );
        assert_eq!(
            out.finish_time(),
            out.streams[0].finish_time.max(out.streams[1].finish_time)
        );
        assert_eq!(out.total_stalls(), 0);
    }

    #[test]
    fn stream_spec_addressing_wraps() {
        let spec = StreamSpec {
            base: u64::MAX,
            stride: 2,
            length: 3,
        };
        assert_eq!(spec.address(0), u64::MAX);
        assert_eq!(spec.address(1), 1);
    }
}
