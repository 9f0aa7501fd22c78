//! Differential test of [`CacheSim`] against the simulator it replaced.
//!
//! The oracle below is the earlier `CacheSim` and `ShadowCache`, unchanged
//! but for what moving them out of the crate takes: counters are bumped
//! through `CacheStats`' public fields, and the replacement choice that
//! was `ReplacementPolicy::victim` is a free function. It stores each set
//! as a `Vec` of entries, sorts the set by its stamps on every miss into a
//! full set, and classifies misses with SipHash maps and a lazily
//! compacted queue: slow, but simple enough to read as the specification.
//! The flat simulator must return the same `AccessResult` on every access
//! and the same `CacheStats` at the end. The oracle is temporary: ROADMAP
//! tracks its deletion.

use std::collections::{HashMap, HashSet, VecDeque};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vcache_cache::{
    AccessResult, CacheSim, CacheStats, Geometry, IndexMapper, LineAddr, Mapper, MissKind,
    Pow2Mapper, PrimeMapper, ReplacementPolicy, StreamId, WordAddr,
};

/// Outcome of consulting the shadow for one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShadowVerdict {
    /// Shadow holds the line.
    Hit,
    /// Line seen before but evicted by capacity in the shadow too.
    CapacityMiss,
    /// First-ever touch.
    ColdMiss,
}

/// A fully-associative LRU cache tracking only presence, used as the
/// classification reference.
#[derive(Debug, Clone)]
struct ShadowCache {
    capacity: usize,
    // LRU queue of (line, touch generation); front = least recent. Entries
    // whose generation no longer matches `resident` are stale duplicates
    // left behind by re-touches and are discarded lazily.
    queue: VecDeque<(LineAddr, u64)>,
    resident: HashMap<LineAddr, u64>, // line -> generation of its latest touch
    ever_seen: HashSet<LineAddr>,
    generation: u64,
}

impl ShadowCache {
    fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "shadow cache capacity must be positive");
        Self {
            capacity: capacity as usize,
            queue: VecDeque::new(),
            resident: HashMap::new(),
            ever_seen: HashSet::new(),
            generation: 0,
        }
    }

    /// Touches `line`; returns the verdict *before* installing it.
    fn touch(&mut self, line: LineAddr) -> ShadowVerdict {
        self.generation += 1;
        let verdict = if self.resident.contains_key(&line) {
            ShadowVerdict::Hit
        } else if self.ever_seen.contains(&line) {
            ShadowVerdict::CapacityMiss
        } else {
            ShadowVerdict::ColdMiss
        };
        self.ever_seen.insert(line);
        self.resident.insert(line, self.generation);
        self.queue.push_back((line, self.generation));
        self.evict_lru();
        verdict
    }

    /// Enforces capacity, discarding stale queue entries along the way.
    fn evict_lru(&mut self) {
        while self.resident.len() > self.capacity {
            // resident ⊆ queue, so the queue cannot drain first; if it
            // somehow did, stopping (cache temporarily over capacity) is
            // strictly safer than aborting the simulation.
            let Some((line, gen)) = self.queue.pop_front() else {
                break;
            };
            if self.resident.get(&line) == Some(&gen) {
                self.resident.remove(&line);
            }
            // else: stale entry for a line re-touched later; skip it.
        }
        // Hit-heavy workloads accumulate stale entries without triggering
        // pops; compact when the queue is mostly garbage so memory stays
        // proportional to capacity, not trace length.
        if self.queue.len() > self.capacity.saturating_mul(2) + 16 {
            let resident = &self.resident;
            self.queue.retain(|(l, g)| resident.get(l) == Some(g));
        }
    }
}

/// Picks the victim way among `ways` occupied entries.
///
/// `use_order` holds way indices from least- to most-recently *used*;
/// `fill_order` from oldest- to newest-*filled*. Both always contain
/// every occupied way exactly once.
fn victim(
    policy: ReplacementPolicy,
    use_order: &[usize],
    fill_order: &[usize],
    rng: &mut StdRng,
) -> usize {
    match policy {
        ReplacementPolicy::Lru => use_order[0],
        ReplacementPolicy::Fifo => fill_order[0],
        ReplacementPolicy::Random => use_order[rng.random_range(0..use_order.len())],
    }
}

/// One resident line: its address and owning stream.
#[derive(Debug, Clone, Copy)]
struct Entry {
    line: LineAddr,
    stream: StreamId,
    last_use: u64,
    filled_at: u64,
}

/// The earlier trace-driven cache simulator.
#[derive(Debug)]
struct Oracle {
    geometry: Geometry,
    mapper: Mapper,
    policy: ReplacementPolicy,
    sets: Vec<Vec<Entry>>,
    shadow: ShadowCache,
    stats: CacheStats,
    clock: u64,
    rng: StdRng,
}

impl Oracle {
    fn build(geometry: Geometry, mapper: Mapper, policy: ReplacementPolicy) -> Self {
        let sets = vec![Vec::new(); geometry.sets() as usize];
        Self {
            geometry,
            mapper,
            policy,
            sets,
            shadow: ShadowCache::new(geometry.total_lines()),
            stats: CacheStats::default(),
            clock: 0,
            rng: StdRng::seed_from_u64(0x9E37_79B9_7F4A_7C15),
        }
    }

    fn contains(&self, word: WordAddr) -> bool {
        let line = word.line(self.geometry.line_words());
        let set = self.mapper.index(line) as usize;
        self.sets[set].iter().any(|e| e.line == line)
    }

    fn access(&mut self, word: WordAddr, stream: StreamId) -> AccessResult {
        self.clock += 1;
        let line = word.line(self.geometry.line_words());
        let set_idx = self.mapper.index(line);
        let verdict = self.shadow.touch(line);
        let set = &mut self.sets[set_idx as usize];

        if let Some(entry) = set.iter_mut().find(|e| e.line == line) {
            entry.last_use = self.clock;
            entry.stream = stream;
            self.stats.accesses += 1;
            self.stats.hits += 1;
            return AccessResult {
                line,
                set: set_idx,
                miss: None,
                evicted: None,
            };
        }

        // Miss: pick a victim if the set is full.
        let evicted = if (set.len() as u64) < self.geometry.ways() {
            None
        } else {
            let mut use_order: Vec<usize> = (0..set.len()).collect();
            use_order.sort_by_key(|&i| set[i].last_use);
            let mut fill_order: Vec<usize> = (0..set.len()).collect();
            fill_order.sort_by_key(|&i| set[i].filled_at);
            let victim = victim(self.policy, &use_order, &fill_order, &mut self.rng);
            Some(set.swap_remove(victim))
        };

        set.push(Entry {
            line,
            stream,
            last_use: self.clock,
            filled_at: self.clock,
        });

        let kind = match verdict {
            ShadowVerdict::ColdMiss => MissKind::Compulsory,
            ShadowVerdict::CapacityMiss => MissKind::Capacity,
            ShadowVerdict::Hit => match evicted {
                Some(e) if e.stream != stream => MissKind::ConflictCross,
                _ => MissKind::ConflictSelf,
            },
        };
        self.stats.accesses += 1;
        match kind {
            MissKind::Compulsory => self.stats.compulsory_misses += 1,
            MissKind::Capacity => self.stats.capacity_misses += 1,
            MissKind::ConflictSelf => self.stats.self_interference_misses += 1,
            MissKind::ConflictCross => self.stats.cross_interference_misses += 1,
        }

        AccessResult {
            line,
            set: set_idx,
            miss: Some(kind),
            evicted: evicted.map(|e| e.line),
        }
    }

    fn reset(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.shadow = ShadowCache::new(self.geometry.total_lines());
        self.stats = CacheStats::default();
        self.clock = 0;
    }
}

/// A cache organization under test.
#[derive(Debug, Clone, Copy)]
enum Org {
    /// Pow2 mapping: `2^sets_log2` sets of `ways` lines (1 = direct).
    Pow2 { sets_log2: u32, ways: u64 },
    /// One set of `lines` lines.
    Full { lines: u64 },
    /// Prime mapping: `2^exponent − 1` sets of `ways` lines.
    Prime { exponent: u32, ways: u64 },
}

/// The flat simulator and the oracle for one organization.
fn pair(org: Org, line_words: u64, policy: ReplacementPolicy) -> (CacheSim, Oracle) {
    let (sim, mapper) = match org {
        Org::Pow2 { sets_log2, ways } => {
            let sets = 1u64 << sets_log2;
            let sim = CacheSim::set_associative(sets * ways, ways, line_words, policy);
            (sim, Mapper::Pow2(Pow2Mapper::new(sets)))
        }
        Org::Full { lines } => (
            CacheSim::fully_associative(lines, line_words, policy),
            Mapper::Pow2(Pow2Mapper::new(1)),
        ),
        Org::Prime { exponent, ways } => (
            CacheSim::prime_mapped_associative(exponent, ways, line_words, policy),
            Mapper::Prime(PrimeMapper::new(exponent).unwrap()),
        ),
    };
    let sim = sim.unwrap();
    let oracle = Oracle::build(sim.geometry(), mapper, policy);
    (sim, oracle)
}

fn arb_org() -> impl Strategy<Value = Org> {
    let ways = prop::sample::select(vec![1u64, 1, 2, 4, 8]);
    (0u32..3, 0u32..7, ways, 1u64..25, 0usize..4).prop_map(
        |(kind, sets_log2, ways, lines, exponent)| match kind {
            0 => Org::Pow2 { sets_log2, ways },
            1 => Org::Full { lines },
            _ => Org::Prime {
                exponent: [2, 3, 5, 7][exponent],
                ways: ways.min(4),
            },
        },
    )
}

/// One traced access: a word (mostly below `span`, sometimes within 16
/// words of `u64::MAX`) and its stream.
fn arb_access() -> impl Strategy<Value = (u64, u64, u32)> {
    (0u64..16, any::<u64>(), 0u32..4)
}

fn word(kind: u64, raw: u64, span: u64) -> WordAddr {
    match kind {
        0 => WordAddr::new(u64::MAX - (raw & 15)),
        _ => WordAddr::new(raw % span),
    }
}

const POLICIES: [ReplacementPolicy; 3] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::Fifo,
    ReplacementPolicy::Random,
];

proptest! {
    #[test]
    fn flat_simulator_matches_the_oracle_on_every_access(
        org in arb_org(),
        line_words in prop::sample::select(vec![1u64, 2, 4, 8]),
        span in prop::sample::select(vec![16u64, 64, 256, 1024, 8192]),
        trace in prop::collection::vec(arb_access(), 1..400),
        reset_at in 0usize..500,
    ) {
        for policy in POLICIES {
            let (mut sim, mut oracle) = pair(org, line_words, policy);
            for (i, &(kind, raw, stream)) in trace.iter().enumerate() {
                if i == reset_at {
                    sim.reset();
                    oracle.reset();
                }
                let (w, s) = (word(kind, raw, span), StreamId::new(stream));
                prop_assert_eq!(sim.access(w, s), oracle.access(w, s), "{:?} {} access {}", org, policy, i);
            }
            prop_assert_eq!(sim.stats(), oracle.stats);
            for &(kind, raw, _) in &trace {
                let w = word(kind, raw, span);
                prop_assert_eq!(sim.contains(w), oracle.contains(w));
            }
        }
    }
}

#[test]
fn paper_scale_multistream_traces_match_the_oracle() {
    // The benchmark's three geometries under interleaved strided streams
    // that overflow 8192 lines, so the shadow table grows and both
    // capacity and conflict misses occur.
    let orgs = [
        Org::Pow2 {
            sets_log2: 13,
            ways: 1,
        },
        Org::Pow2 {
            sets_log2: 11,
            ways: 4,
        },
        Org::Prime {
            exponent: 13,
            ways: 1,
        },
    ];
    let streams = [(0u64, 1u64), (1 << 20, 512), (3 << 20, 8191), (5 << 20, 96)];
    for org in orgs {
        for policy in POLICIES {
            let (mut sim, mut oracle) = pair(org, 1, policy);
            for pass in 0..2 {
                for i in 0..3000u64 {
                    for (s, &(base, stride)) in streams.iter().enumerate() {
                        let w = WordAddr::new(base + i * stride);
                        let s = StreamId::new(s as u32);
                        assert_eq!(
                            sim.access(w, s),
                            oracle.access(w, s),
                            "{org:?} {policy} pass {pass} i {i}"
                        );
                    }
                }
            }
            assert_eq!(sim.stats(), oracle.stats);
        }
    }
}
