//! The executors: MM-model and CC-model.
//!
//! Each machine holds its timing model once, in a `run` generic over the
//! trace sink. `execute` runs it over [`NullSink`], whose no-op `record`
//! inlines away, and `execute_traced` runs it behind a [`MeteringSink`].

use vcache_cache::{CacheSim, StreamId, WordAddr};
use vcache_mem::{
    simulate_dual_stream_traced, simulate_single_stream_traced, MemoryConfig, StreamSpec,
};
use vcache_trace::{MeteringSink, MetricsRegistry, NullSink, PhaseKind, TraceEvent, TraceSink};
use vcache_workloads::{Program, VectorAccess};

use crate::config::{MachineConfig, MachineError};
use crate::report::ExecutionReport;

/// Fixed per-access overhead (Equation (1)): `10` cycles per vector
/// operation sequence plus `15 + T_start` per strip of `MVL` elements.
/// `t_start_reduction` implements Equation (4)'s `T_start − t_m` for
/// accesses served entirely from the cache.
fn access_overhead(config: &MachineConfig, length: u64, t_start_reduction: u64) -> f64 {
    let strips = length.div_ceil(config.mvl).max(1) as f64;
    10.0 + strips * (15.0 + (config.t_start() - t_start_reduction) as f64)
}

fn to_spec(a: &VectorAccess) -> StreamSpec {
    StreamSpec {
        base: a.base,
        stride: a.stride as u64, // two's complement wrapping encodes negatives
        length: a.length,
    }
}

/// Runs a machine's timing model behind a [`MeteringSink`] over `sink`
/// and attaches the metrics it derived, with the `machine.cycles` and
/// `machine.cycles_per_result` gauges, to the report.
fn metered(
    sink: &mut dyn TraceSink,
    run: impl FnOnce(&mut MeteringSink<'_>) -> ExecutionReport,
) -> ExecutionReport {
    let mut metrics = MetricsRegistry::new();
    // The meter folds its counts into `metrics` when it drops, at the end
    // of this statement.
    let mut report = run(&mut MeteringSink::new(sink, &mut metrics));
    metrics.gauge("machine.cycles", report.cycles);
    metrics.gauge("machine.cycles_per_result", report.cycles_per_result());
    report.metrics = Some(metrics.snapshot());
    report
}

/// Marks the start or end of phase `kind` at machine cycle `cycle`.
fn phase<S: TraceSink + ?Sized>(
    sink: &mut S,
    begin: bool,
    kind: PhaseKind,
    sweep: u64,
    cycle: f64,
) {
    sink.record(&if begin {
        TraceEvent::PhaseBegin { kind, sweep, cycle }
    } else {
        TraceEvent::PhaseEnd { kind, sweep, cycle }
    });
}

/// The cache-less MM-model vector processor (paper Figure 2).
///
/// See the crate docs for the timing skeleton and an example.
#[derive(Debug)]
pub struct MmMachine {
    config: MachineConfig,
    memory: MemoryConfig,
}

impl MmMachine {
    /// Builds the machine.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError`] for invalid bank counts, zero access time,
    /// or zero `MVL`. Any configured cache is ignored (this is the no-cache
    /// model).
    pub fn new(config: MachineConfig) -> Result<Self, MachineError> {
        config.validate()?;
        let memory = config.memory_config()?;
        Ok(Self { config, memory })
    }

    /// Executes `program`, streaming every access through the banks.
    #[must_use]
    pub fn execute(&self, program: &Program) -> ExecutionReport {
        self.run(program, &mut NullSink)
    }

    /// [`execute`](Self::execute) with observability: every bank access is
    /// streamed to `sink`, phase boundaries are marked, and the returned
    /// report carries a [`MetricsSnapshot`](vcache_trace::MetricsSnapshot)
    /// in `report.metrics`.
    #[must_use]
    pub fn execute_traced(&self, program: &Program, sink: &mut dyn TraceSink) -> ExecutionReport {
        metered(sink, |meter| self.run(program, meter))
    }

    /// The timing model: each access group (chime) is one phase, a paired
    /// access rides both read buses, any other access streams alone.
    fn run<S: TraceSink + ?Sized>(&self, program: &Program, sink: &mut S) -> ExecutionReport {
        let mut report = ExecutionReport::default();
        phase(sink, true, PhaseKind::Program, 0, 0.0);
        let mut i = 0;
        let mut sweep = 0;
        while i < program.accesses.len() {
            let a = &program.accesses[i];
            phase(sink, true, PhaseKind::Chime, sweep, report.cycles);
            let overhead = access_overhead(&self.config, a.length, 0);
            if a.paired_with_next && i + 1 < program.accesses.len() {
                let b = &program.accesses[i + 1];
                let dual = simulate_dual_stream_traced(&self.memory, to_spec(a), to_spec(b), sink);
                let stalls = dual.total_stalls();
                report.cycles += overhead + a.length.max(b.length) as f64 + stalls as f64;
                report.memory_stall_cycles += stalls;
                report.elements += a.length + b.length;
                i += 2;
            } else {
                let single = simulate_single_stream_traced(
                    &self.memory,
                    a.base,
                    a.stride as u64,
                    a.length,
                    sink,
                );
                report.cycles += overhead + a.length as f64 + single.stall_cycles as f64;
                report.memory_stall_cycles += single.stall_cycles;
                report.elements += a.length;
                i += 1;
            }
            report.overhead_cycles += overhead;
            report.results += a.length;
            phase(sink, false, PhaseKind::Chime, sweep, report.cycles);
            sweep += 1;
        }
        phase(sink, false, PhaseKind::Program, 0, report.cycles);
        report
    }
}

/// The cache-equipped CC-model vector processor (paper Figure 3).
///
/// Miss handling follows the paper's assumptions: a sweep that misses on
/// *every* element is a compulsory/initial load and pipelines through the
/// banks like an MM-model stream; scattered misses each stall the full
/// `t_m` ("cache misses may not be easily pipelined"); an all-hit sweep
/// starts up `t_m` cycles sooner.
#[derive(Debug)]
pub struct CcMachine {
    config: MachineConfig,
    memory: MemoryConfig,
    cache: CacheSim,
}

impl CcMachine {
    /// Builds the machine.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Cache`] if no cache is configured or its
    /// parameters are invalid, and the same errors as [`MmMachine::new`]
    /// otherwise.
    pub fn new(config: MachineConfig) -> Result<Self, MachineError> {
        config.validate()?;
        let memory = config.memory_config()?;
        let spec = config.cache.ok_or(MachineError::Cache(
            vcache_cache::CacheConfigError::ZeroSize,
        ))?;
        let cache = spec.build()?;
        Ok(Self {
            config,
            memory,
            cache,
        })
    }

    /// The cache's current counters.
    #[must_use]
    pub fn cache_stats(&self) -> vcache_cache::CacheStats {
        self.cache.stats()
    }

    /// Executes `program` through the cache, consuming accumulated state
    /// (call repeatedly to model phase sequences sharing one cache).
    pub fn execute(&mut self, program: &Program) -> ExecutionReport {
        self.run(program, &mut NullSink)
    }

    /// [`execute`](Self::execute) with observability: every cache access and
    /// every bank access of a full-miss load is streamed to `sink`, phase
    /// boundaries are marked, and the returned report carries a
    /// [`MetricsSnapshot`](vcache_trace::MetricsSnapshot) in
    /// `report.metrics`.
    pub fn execute_traced(
        &mut self,
        program: &Program,
        sink: &mut dyn TraceSink,
    ) -> ExecutionReport {
        metered(sink, |meter| self.run(program, meter))
    }

    /// The timing model: each access group (chime) is one phase whose
    /// streams first run through the cache, then pay for their misses.
    fn run<S: TraceSink + ?Sized>(&mut self, program: &Program, sink: &mut S) -> ExecutionReport {
        let mut report = ExecutionReport::default();
        phase(sink, true, PhaseKind::Program, 0, 0.0);
        let mut i = 0;
        let mut sweep = 0;
        while i < program.accesses.len() {
            let a = &program.accesses[i];
            let paired = a.paired_with_next && i + 1 < program.accesses.len();
            phase(sink, true, PhaseKind::Chime, sweep, report.cycles);

            // Per-stream miss handling: a stream that misses on every
            // element is an initial load and pipelines through the banks;
            // scattered misses each stall t_m; all-hits cost nothing extra.
            let streams: &[&VectorAccess] = if paired {
                &[a, &program.accesses[i + 1]]
            } else {
                &[a]
            };
            let mut full_miss = [false; 2];
            let mut mem_stalls = 0u64;
            let mut cache_stalls = 0u64;
            let mut all_hit = true;
            for (s, acc) in streams.iter().enumerate() {
                let misses = self.cache.access_stream_traced(
                    WordAddr::new(acc.base),
                    acc.stride as u64,
                    acc.length,
                    StreamId::new(acc.stream),
                    sink,
                );
                if misses == acc.length && acc.length > 0 {
                    all_hit = false;
                    full_miss[s] = true;
                } else if misses > 0 {
                    all_hit = false;
                    cache_stalls += misses * self.config.t_m;
                }
            }
            match full_miss {
                [true, true] => {
                    // Both streams load together: dual-bus bank contention.
                    let b = &program.accesses[i + 1];
                    mem_stalls =
                        simulate_dual_stream_traced(&self.memory, to_spec(a), to_spec(b), sink)
                            .total_stalls();
                }
                _ => {
                    for (s, acc) in streams.iter().enumerate() {
                        if full_miss[s] {
                            mem_stalls += simulate_single_stream_traced(
                                &self.memory,
                                acc.base,
                                acc.stride as u64,
                                acc.length,
                                sink,
                            )
                            .stall_cycles;
                        }
                    }
                }
            }
            // Equation (4): an access served entirely from cache starts up
            // t_m cycles sooner.
            let startup_reduction = if all_hit { self.config.t_m } else { 0 };
            let overhead = access_overhead(&self.config, a.length, startup_reduction);

            report.cycles += overhead + a.length as f64 + (mem_stalls + cache_stalls) as f64;
            report.overhead_cycles += overhead;
            report.memory_stall_cycles += mem_stalls;
            report.cache_stall_cycles += cache_stalls;
            report.results += a.length;
            report.elements += streams.iter().map(|acc| acc.length).sum::<u64>();
            phase(sink, false, PhaseKind::Chime, sweep, report.cycles);
            sweep += 1;
            i += streams.len();
        }
        phase(sink, false, PhaseKind::Program, 0, report.cycles);
        report.cache_stats = Some(self.cache.stats());
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheSpec;
    use vcache_trace::RingSink;
    use vcache_workloads::{generate_program, saxpy_trace, StrideDistribution, Vcm};

    fn program_unit_reuse(b: u64, r: u64) -> Program {
        let vcm = Vcm {
            blocking_factor: b,
            reuse_factor: r,
            p_ds: 0.0,
            stride1: vcache_workloads::StrideDistribution::Fixed(1),
            stride2: vcache_workloads::StrideDistribution::Fixed(1),
        };
        generate_program(&vcm, b, 1)
    }

    #[test]
    fn mm_unit_stride_no_stalls() {
        let m = MmMachine::new(MachineConfig::paper_default(16)).unwrap();
        let report = m.execute(&program_unit_reuse(1024, 1));
        assert_eq!(report.memory_stall_cycles, 0);
        assert_eq!(report.results, 1024);
        // 10 + 16 strips × (15 + 46) + 1024 elements.
        assert_eq!(report.cycles, 10.0 + 16.0 * 61.0 + 1024.0);
    }

    #[test]
    fn mm_strided_program_stalls() {
        let m = MmMachine::new(MachineConfig::paper_default(16)).unwrap();
        let vcm = Vcm {
            blocking_factor: 512,
            reuse_factor: 1,
            p_ds: 0.0,
            stride1: vcache_workloads::StrideDistribution::Fixed(8),
            stride2: vcache_workloads::StrideDistribution::Fixed(1),
        };
        let report = m.execute(&generate_program(&vcm, 512, 1));
        // stride 8 on 32 banks, tm 16: (512-1)/4 wraps × 12 cycles.
        assert_eq!(report.memory_stall_cycles, (511 / 4) * 12);
    }

    #[test]
    fn mm_paired_access_counts_both_streams() {
        let m = MmMachine::new(MachineConfig::paper_default(4)).unwrap();
        let report = m.execute(&saxpy_trace(0, 100_000, 64));
        assert_eq!(report.results, 64);
        assert_eq!(report.elements, 128);
    }

    #[test]
    fn cc_reuse_turns_into_hits() {
        let cfg = MachineConfig::paper_default(16).with_cache(CacheSpec::direct(8192));
        let mut m = CcMachine::new(cfg).unwrap();
        let report = m.execute(&program_unit_reuse(1024, 4));
        let stats = report.cache_stats.unwrap();
        assert_eq!(stats.compulsory_misses, 1024);
        assert_eq!(stats.hits, 3 * 1024);
        assert_eq!(report.cache_stall_cycles, 0);
    }

    #[test]
    fn cc_beats_mm_when_memory_slow_and_reuse_high() {
        let program = program_unit_reuse(2048, 8);
        let mm = MmMachine::new(MachineConfig::paper_default(64))
            .unwrap()
            .execute(&program);
        let cc =
            CcMachine::new(MachineConfig::paper_default(64).with_cache(CacheSpec::direct(8192)))
                .unwrap()
                .execute(&program);
        assert!(
            cc.cycles < mm.cycles,
            "cc {} !< mm {}",
            cc.cycles,
            mm.cycles
        );
    }

    #[test]
    fn prime_cache_beats_direct_on_pow2_strides() {
        // Stride 512 swept twice: direct-mapped thrashes 16 lines, prime
        // keeps everything.
        let vcm = Vcm {
            blocking_factor: 4096,
            reuse_factor: 4,
            p_ds: 0.0,
            stride1: vcache_workloads::StrideDistribution::Fixed(512),
            stride2: vcache_workloads::StrideDistribution::Fixed(1),
        };
        let program = generate_program(&vcm, 4096, 1);
        let base = MachineConfig::paper_section4(32);
        let direct = CcMachine::new(base.with_cache(CacheSpec::direct(8192)))
            .unwrap()
            .execute(&program);
        let prime = CcMachine::new(base.with_cache(CacheSpec::prime(13)))
            .unwrap()
            .execute(&program);
        assert!(
            prime.cycles < direct.cycles / 2.0,
            "prime {} !< half of direct {}",
            prime.cycles,
            direct.cycles
        );
        assert_eq!(prime.cache_stats.unwrap().conflict_misses(), 0);
    }

    #[test]
    fn cc_requires_a_cache() {
        assert!(matches!(
            CcMachine::new(MachineConfig::paper_default(8)),
            Err(MachineError::Cache(_))
        ));
    }

    /// A cold paired load (SAXPY), then strided VCM blocks with
    /// double-stream sweeps: between them every branch of the CC
    /// machine's miss handling.
    fn mixed_program() -> Program {
        let vcm = Vcm {
            blocking_factor: 1024,
            reuse_factor: 4,
            p_ds: 0.5,
            stride1: StrideDistribution::UnitOrUniform {
                p_unit: 0.25,
                max: 64,
            },
            stride2: StrideDistribution::Fixed(1),
        };
        let mut accesses = saxpy_trace(1 << 40, (1 << 40) + 100_000, 300).accesses;
        accesses.extend(generate_program(&vcm, 1 << 14, 7).accesses);
        Program::new("saxpy+vcm", accesses)
    }

    /// The benchmark's three caches: direct, 4-way LRU and prime.
    fn benchmark_caches() -> [CacheSpec; 3] {
        [
            CacheSpec::direct(8192),
            CacheSpec::SetAssociative {
                lines: 8192,
                ways: 4,
                line_words: 1,
                policy: vcache_cache::ReplacementPolicy::Lru,
            },
            CacheSpec::prime(13),
        ]
    }

    /// Events of each kind: cache, bank, phase.
    fn count_kinds(ring: &RingSink) -> [u64; 3] {
        let mut counts = [0; 3];
        for e in ring.events() {
            counts[match e {
                TraceEvent::CacheAccess { .. } => 0,
                TraceEvent::BankAccess { .. } => 1,
                TraceEvent::PhaseBegin { .. } | TraceEvent::PhaseEnd { .. } => 2,
            }] += 1;
        }
        counts
    }

    /// The program split into access groups the way both machines walk
    /// it: a paired access and the one after it, or one access alone.
    fn groups(program: &Program) -> Vec<&[VectorAccess]> {
        let mut out = Vec::new();
        let mut rest = &program.accesses[..];
        while let Some(a) = rest.first() {
            let (group, tail) =
                rest.split_at(1 + usize::from(a.paired_with_next && rest.len() > 1));
            out.push(group);
            rest = tail;
        }
        out
    }

    /// Each chime's events split at its phase boundaries.
    fn chimes(ring: &RingSink) -> Vec<Vec<&TraceEvent>> {
        let mut out = Vec::new();
        for e in ring.events() {
            match e {
                TraceEvent::PhaseBegin {
                    kind: PhaseKind::Chime,
                    ..
                } => out.push(Vec::new()),
                TraceEvent::PhaseEnd { .. } | TraceEvent::PhaseBegin { .. } => {}
                _ => out.last_mut().expect("events sit inside a chime").push(e),
            }
        }
        out
    }

    #[test]
    fn mm_traced_run_equals_the_plain_run() {
        let m = MmMachine::new(MachineConfig::paper_default(16)).unwrap();
        let program = mixed_program();
        let plain = m.execute(&program);
        assert!(plain.metrics.is_none());
        let mut ring = RingSink::new(usize::MAX);
        let mut traced = m.execute_traced(&program, &mut ring);
        let metrics = traced.metrics.take().expect("traced run collects metrics");
        assert_eq!(traced, plain);

        assert_eq!(ring.dropped(), 0);
        let [cache, bank, phase] = count_kinds(&ring);
        assert_eq!(cache, 0);
        assert_eq!(bank, plain.elements);
        assert_eq!(phase, 2 + 2 * metrics.counter("machine.chimes"));
        assert_eq!(metrics.counter("mem.accesses"), plain.elements);

        // One chime per access group, a pair included, and each chime
        // streams exactly its group's elements through the banks.
        let groups = groups(&program);
        assert!(groups.iter().any(|g| g.len() == 2) && groups.iter().any(|g| g.len() == 1));
        assert_eq!(metrics.counter("machine.chimes"), groups.len() as u64);
        let chimes = chimes(&ring);
        assert_eq!(chimes.len(), groups.len());
        for (events, group) in chimes.iter().zip(&groups) {
            let banks = events
                .iter()
                .filter(|e| matches!(e, TraceEvent::BankAccess { .. }))
                .count() as u64;
            assert_eq!(banks, group.iter().map(|a| a.length).sum::<u64>());
        }
    }

    #[test]
    fn cc_traced_run_equals_the_plain_run_on_every_branch() {
        let program = mixed_program();
        for spec in benchmark_caches() {
            let cfg = MachineConfig::paper_default(16).with_cache(spec);
            let plain = CcMachine::new(cfg.clone()).unwrap().execute(&program);
            assert!(plain.metrics.is_none());
            let mut ring = RingSink::new(usize::MAX);
            let mut traced = CcMachine::new(cfg)
                .unwrap()
                .execute_traced(&program, &mut ring);
            let metrics = traced.metrics.take().expect("traced run collects metrics");
            assert_eq!(traced, plain, "{spec:?}");

            assert_eq!(ring.dropped(), 0);
            let stats = plain.cache_stats.unwrap();
            let [cache, _, phase] = count_kinds(&ring);
            assert_eq!(cache, stats.accesses, "{spec:?}");
            assert_eq!(phase, 2 + 2 * metrics.counter("machine.chimes"));
            assert_eq!(metrics.counter("cache.accesses"), stats.accesses);
            assert_eq!(metrics.counter("cache.hits"), stats.hits);
            assert_eq!(
                metrics.counter("cache.miss.compulsory"),
                stats.compulsory_misses
            );

            // Walk the chimes beside the program's access groups: a stream
            // that missed on every element loads through the banks, and
            // nothing else does.
            let groups = groups(&program);
            assert_eq!(metrics.counter("machine.chimes"), groups.len() as u64);
            let chimes = chimes(&ring);
            assert_eq!(chimes.len(), groups.len());
            let mut reached = [false; 4]; // dual full-miss, single full-miss, scattered, all-hit
            for (events, streams) in chimes.iter().zip(&groups) {
                let mut misses = events.iter().filter_map(|e| match e {
                    TraceEvent::CacheAccess { miss, .. } => Some(miss.is_some()),
                    _ => None,
                });
                let (mut full, mut loaded, mut scattered) = (0, 0, false);
                for acc in *streams {
                    let missed = misses
                        .by_ref()
                        .take(acc.length as usize)
                        .filter(|&m| m)
                        .count() as u64;
                    if missed == acc.length && acc.length > 0 {
                        full += 1;
                        loaded += acc.length;
                    } else {
                        scattered |= missed > 0;
                    }
                }
                let banks = events
                    .iter()
                    .filter(|e| matches!(e, TraceEvent::BankAccess { .. }))
                    .count() as u64;
                assert_eq!(banks, loaded, "{spec:?}");
                reached[0] |= full == 2;
                reached[1] |= full == 1;
                reached[2] |= scattered;
                reached[3] |= full == 0 && !scattered;
            }
            assert_eq!(reached, [true; 4], "{spec:?}");
        }
    }

    #[test]
    fn empty_program_is_free() {
        let m = MmMachine::new(MachineConfig::paper_default(8)).unwrap();
        let report = m.execute(&Program::new("empty", vec![]));
        assert_eq!(report.cycles, 0.0);
        assert_eq!(report.results, 0);
    }
}
