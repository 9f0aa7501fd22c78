//! Differential test of [`CacheSim`] against a naive reference model.
//!
//! The model keeps each set as a `Vec` of resident lines, finds a line by
//! a linear scan, and picks a full set's victim by its stamps: LRU the
//! oldest use, FIFO the oldest fill, and Random the line at the drawn
//! rank of use, drawn from the same seeded generator as the simulator's.
//! Misses are classified against a fully-associative LRU shadow of the
//! cache's capacity: a line the shadow still holds missed by conflict,
//! one it has seen missed by capacity, any other is compulsory. The flat
//! simulator must return the same `AccessResult` on every access, hold
//! the same lines, and end with the same `CacheStats`.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vcache_cache::{
    AccessResult, CacheSim, CacheStats, Geometry, IndexMapper, LineAddr, Mapper, MissKind,
    Pow2Mapper, PrimeMapper, ReplacementPolicy, StreamId, WordAddr,
};

/// One resident line with the stream and clock of its latest use and
/// the clock of its fill.
#[derive(Debug, Clone, Copy)]
struct Resident {
    line: LineAddr,
    stream: StreamId,
    last_use: u64,
    filled_at: u64,
}

/// The reference model.
#[derive(Debug)]
struct Oracle {
    geometry: Geometry,
    mapper: Mapper,
    policy: ReplacementPolicy,
    sets: Vec<Vec<Resident>>,
    /// Every line seen since the last reset, with the clock of its
    /// latest access.
    seen: HashMap<LineAddr, u64>,
    /// The shadow's resident lines keyed by that clock, oldest first.
    shadow: BTreeMap<u64, LineAddr>,
    stats: CacheStats,
    clock: u64,
    rng: StdRng,
}

impl Oracle {
    fn build(geometry: Geometry, mapper: Mapper, policy: ReplacementPolicy) -> Self {
        Self {
            geometry,
            mapper,
            policy,
            sets: vec![Vec::new(); geometry.sets() as usize],
            seen: HashMap::new(),
            shadow: BTreeMap::new(),
            stats: CacheStats::default(),
            clock: 0,
            rng: StdRng::seed_from_u64(0x9E37_79B9_7F4A_7C15),
        }
    }

    fn contains(&self, word: WordAddr) -> bool {
        let line = word.line(self.geometry.line_words());
        let set = &self.sets[self.mapper.index(line) as usize];
        set.iter().any(|r| r.line == line)
    }

    fn access(&mut self, word: WordAddr, stream: StreamId) -> AccessResult {
        self.clock += 1;
        let line = word.line(self.geometry.line_words());
        let set = self.mapper.index(line);
        // The shadow's verdict comes from before this access.
        let seen = self.seen.insert(line, self.clock);
        let shadow_hit = seen.is_some_and(|clock| self.shadow.remove(&clock).is_some());
        self.shadow.insert(self.clock, line);
        if self.shadow.len() as u64 > self.geometry.total_lines() {
            self.shadow.pop_first();
        }

        let residents = &mut self.sets[set as usize];
        let fill = Resident {
            line,
            stream,
            last_use: self.clock,
            filled_at: self.clock,
        };
        let (hit, evicted) = if let Some(hit) = residents.iter_mut().find(|r| r.line == line) {
            hit.last_use = self.clock;
            hit.stream = stream;
            (true, None)
        } else if (residents.len() as u64) < self.geometry.ways() {
            residents.push(fill);
            (false, None)
        } else {
            // The full set's slots ranked by a stamp, oldest first.
            let ranked = |stamp: fn(&Resident) -> u64| {
                let mut ranks: Vec<(u64, usize)> = residents.iter().map(stamp).zip(0..).collect();
                ranks.sort_unstable();
                ranks
            };
            let (_, victim) = match self.policy {
                ReplacementPolicy::Lru => ranked(|r| r.last_use)[0],
                ReplacementPolicy::Fifo => ranked(|r| r.filled_at)[0],
                ReplacementPolicy::Random => {
                    ranked(|r| r.last_use)[self.rng.random_range(0..residents.len())]
                }
            };
            (false, Some(std::mem::replace(&mut residents[victim], fill)))
        };

        let miss = (!hit).then(|| match (seen, shadow_hit, evicted) {
            (None, _, _) => MissKind::Compulsory,
            (_, false, _) => MissKind::Capacity,
            (_, _, Some(e)) if e.stream != stream => MissKind::ConflictCross,
            _ => MissKind::ConflictSelf,
        });
        self.stats.accesses += 1;
        *match miss {
            None => &mut self.stats.hits,
            Some(MissKind::Compulsory) => &mut self.stats.compulsory_misses,
            Some(MissKind::Capacity) => &mut self.stats.capacity_misses,
            Some(MissKind::ConflictSelf) => &mut self.stats.self_interference_misses,
            Some(MissKind::ConflictCross) => &mut self.stats.cross_interference_misses,
        } += 1;
        AccessResult {
            line,
            set,
            miss,
            evicted: evicted.map(|e| e.line),
        }
    }

    /// Empties the cache and the shadow; the generator runs on.
    fn reset(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
        self.seen.clear();
        self.shadow.clear();
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

/// The benchmark's three 8192-line geometries: direct-mapped, 4-way and
/// prime-mapped.
const PAPER_ORGS: [Org; 3] = [
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

/// Interleaved strided streams: `(base, stride)` per stream.
const PAPER_STREAMS: [(u64, u64); 4] = [(0, 1), (1 << 20, 512), (3 << 20, 8191), (5 << 20, 96)];

/// Element `i` of every stream in turn, for `i` in `0..elements`, with
/// the streams renumbered from `first_stream`.
fn multistream(elements: u64, first_stream: u32) -> impl Iterator<Item = (WordAddr, StreamId)> {
    (0..elements).flat_map(move |i| {
        (0u32..).zip(PAPER_STREAMS).map(move |(s, (base, stride))| {
            (
                WordAddr::new(base + i * stride),
                StreamId::new(first_stream + s),
            )
        })
    })
}

#[test]
fn paper_scale_multistream_traces_match_the_oracle() {
    // Streams that overflow 8192 lines, so the shadow table grows and
    // both capacity and conflict misses occur.
    for org in PAPER_ORGS {
        for policy in POLICIES {
            let (mut sim, mut oracle) = pair(org, 1, policy);
            for pass in 0..2 {
                for (i, (w, s)) in multistream(3000, 0).enumerate() {
                    assert_eq!(
                        sim.access(w, s),
                        oracle.access(w, s),
                        "{org:?} {policy} pass {pass} access {i}"
                    );
                }
            }
            assert_eq!(sim.stats(), oracle.stats);
        }
    }
}

#[test]
fn a_reset_simulator_replays_like_a_fresh_one() {
    // 4 × 500 accesses fit the 8192-line shadow, so `reset` zeroes only
    // the sets they touched; 4 × 3000 overflow it, so `reset` zeroes
    // every slot. Either way the next trace, over the same lines under
    // other streams, must run exactly as on a fresh simulator: a line
    // left behind would turn a compulsory miss into a hit.
    for org in PAPER_ORGS {
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
            for before in [500, 3000] {
                let (mut used, _) = pair(org, 1, policy);
                for (w, s) in multistream(before, 0) {
                    used.access(w, s);
                }
                used.reset();
                assert_eq!(used.stats(), CacheStats::default());
                let (mut fresh, _) = pair(org, 1, policy);
                for (i, (w, s)) in multistream(3000, 4).enumerate() {
                    assert_eq!(
                        used.access(w, s),
                        fresh.access(w, s),
                        "{org:?} {policy} after {before} access {i}"
                    );
                }
                assert_eq!(
                    used.stats(),
                    fresh.stats(),
                    "{org:?} {policy} after {before}"
                );
            }
        }
    }
}
