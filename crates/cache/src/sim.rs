//! The cache organization simulator.

use core::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use vcache_trace::{NullSink, TraceEvent, TraceSink};

use crate::addr::{Geometry, LineAddr, WordAddr};
use crate::classify::{ShadowCache, ShadowVerdict};
use crate::mapper::{IndexMapper, Mapper, Pow2Mapper, PrimeMapper};
use crate::replacement::ReplacementPolicy;
use crate::stats::{CacheStats, MissKind};

/// Identifies which vector access stream an access belongs to, so conflict
/// misses can be attributed to self- vs cross-interference (§1 of the
/// paper: "two or more elements of the same vector … or elements from two
/// different vectors").
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct StreamId(u32);

impl StreamId {
    /// Creates a stream tag.
    #[must_use]
    pub fn new(id: u32) -> Self {
        Self(id)
    }

    /// The raw tag.
    #[must_use]
    pub fn value(&self) -> u32 {
        self.0
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream{}", self.0)
    }
}

/// Errors constructing a [`CacheSim`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheConfigError {
    /// Line count (or set count) must be a power of two for pow2 mapping.
    LinesNotPowerOfTwo {
        /// Offending line count.
        lines: u64,
    },
    /// Associativity must divide the line count.
    WaysDoNotDivideLines {
        /// Total lines requested.
        lines: u64,
        /// Ways requested.
        ways: u64,
    },
    /// Line size in words must be a nonzero power of two.
    BadLineWords {
        /// Offending line size.
        line_words: u64,
    },
    /// The Mersenne exponent is not in the supported prime table.
    BadMersenneExponent {
        /// Offending exponent.
        exponent: u32,
    },
    /// Zero lines/ways requested.
    ZeroSize,
    /// More sets than the simulator will allocate (the Mersenne exponent
    /// table reaches 2^61 − 1, far beyond simulatable sizes).
    TooManySets {
        /// Requested set count.
        sets: u64,
    },
    /// More lines (sets × ways) than the simulator will allocate.
    TooManyLines {
        /// Requested line count (saturated at `u64::MAX`).
        lines: u64,
    },
}

/// Largest line count (sets × ways) the simulator will allocate: 2^28
/// lines are gigabytes of backing store, already beyond any experiment in
/// this repository. It bounds the set count too.
pub(crate) const MAX_SIMULATED_LINES: u64 = 1 << 28;

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LinesNotPowerOfTwo { lines } => {
                write!(
                    f,
                    "{lines} lines: pow2 mapping requires a power-of-two count"
                )
            }
            Self::WaysDoNotDivideLines { lines, ways } => {
                write!(f, "{ways} ways do not evenly divide {lines} lines")
            }
            Self::BadLineWords { line_words } => {
                write!(
                    f,
                    "line size of {line_words} words is not a nonzero power of two"
                )
            }
            Self::BadMersenneExponent { exponent } => {
                write!(f, "2^{exponent} - 1 is not a supported Mersenne prime")
            }
            Self::ZeroSize => f.write_str("cache must have at least one line"),
            Self::TooManySets { sets } => {
                write!(
                    f,
                    "{sets} sets exceed the simulator's allocation bound of {MAX_SIMULATED_LINES}"
                )
            }
            Self::TooManyLines { lines } => {
                write!(
                    f,
                    "{lines} lines exceed the simulator's allocation bound of {MAX_SIMULATED_LINES}"
                )
            }
        }
    }
}

impl std::error::Error for CacheConfigError {}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// The line accessed.
    pub line: LineAddr,
    /// The set it mapped to.
    pub set: u64,
    /// `None` on a hit; the miss class otherwise.
    pub miss: Option<MissKind>,
    /// Line displaced to make room, if any.
    pub evicted: Option<LineAddr>,
}

impl AccessResult {
    /// True if the access hit.
    #[must_use]
    pub fn is_hit(&self) -> bool {
        self.miss.is_none()
    }
}

/// A trace-driven cache simulator.
///
/// Construct with [`CacheSim::direct_mapped`], [`CacheSim::set_associative`],
/// [`CacheSim::fully_associative`], or [`CacheSim::prime_mapped`]
/// (optionally [`CacheSim::prime_mapped_associative`]), then feed word
/// addresses through [`CacheSim::access`].
///
/// The cache is stored flat: slot `set · ways + way` of four parallel
/// arrays holds one line's tag, stream and stamps. Every array starts
/// zeroed, and an all-zero slot is empty, so construction allocates once
/// and an access allocates nothing.
///
/// # Example
///
/// ```
/// use vcache_cache::{CacheSim, StreamId, WordAddr};
///
/// let mut cache = CacheSim::set_associative(1024, 4, 2, Default::default())?;
/// let r = cache.access(WordAddr::new(0x1234), StreamId::new(0));
/// assert!(!r.is_hit()); // cold cache
/// let r = cache.access(WordAddr::new(0x1235), StreamId::new(0));
/// assert!(r.is_hit()); // same 2-word line
/// # Ok::<(), vcache_cache::CacheConfigError>(())
/// ```
#[derive(Debug)]
pub struct CacheSim {
    geometry: Geometry,
    mapper: Mapper,
    policy: ReplacementPolicy,
    /// Slots per set: set `s` owns slots `s · ways .. (s + 1) · ways`.
    ways: usize,
    /// Per slot: the resident line + 1, or 0 when empty.
    tags: Vec<u64>,
    /// Per slot: the stream of the resident line's latest access.
    streams: Vec<u32>,
    /// Per slot: the clock of the resident line's latest access, or 0
    /// when empty (the clock is at least 1 by the first fill).
    last_use: Vec<u64>,
    /// Per slot: the clock at which the resident line was filled.
    filled_at: Vec<u64>,
    /// Scratch for Random's rank selection, reused across misses.
    ranks: Vec<u64>,
    shadow: ShadowCache,
    stats: CacheStats,
    clock: u64,
    rng: StdRng,
}

/// Seed of the Random policy's generator (not reseeded by
/// [`CacheSim::reset`]).
const RANDOM_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

impl CacheSim {
    /// A direct-mapped cache of `lines` (power of two) lines.
    ///
    /// # Errors
    ///
    /// See [`CacheConfigError`].
    pub fn direct_mapped(lines: u64, line_words: u64) -> Result<Self, CacheConfigError> {
        Self::set_associative(lines, 1, line_words, ReplacementPolicy::Lru)
    }

    /// A set-associative cache of `lines` total lines in `ways`-way sets.
    ///
    /// # Errors
    ///
    /// See [`CacheConfigError`].
    pub fn set_associative(
        lines: u64,
        ways: u64,
        line_words: u64,
        policy: ReplacementPolicy,
    ) -> Result<Self, CacheConfigError> {
        if lines == 0 || ways == 0 {
            return Err(CacheConfigError::ZeroSize);
        }
        if !line_words.is_power_of_two() {
            return Err(CacheConfigError::BadLineWords { line_words });
        }
        if !lines.is_multiple_of(ways) {
            return Err(CacheConfigError::WaysDoNotDivideLines { lines, ways });
        }
        let sets = lines / ways;
        if !sets.is_power_of_two() {
            return Err(CacheConfigError::LinesNotPowerOfTwo { lines: sets });
        }
        Self::build(
            Geometry::new(sets, ways, line_words),
            Mapper::Pow2(Pow2Mapper::new(sets)),
            policy,
        )
    }

    /// A fully-associative cache of `lines` lines.
    ///
    /// # Errors
    ///
    /// See [`CacheConfigError`].
    pub fn fully_associative(
        lines: u64,
        line_words: u64,
        policy: ReplacementPolicy,
    ) -> Result<Self, CacheConfigError> {
        if lines == 0 {
            return Err(CacheConfigError::ZeroSize);
        }
        if !line_words.is_power_of_two() {
            return Err(CacheConfigError::BadLineWords { line_words });
        }
        Self::build(
            Geometry::new(1, lines, line_words),
            Mapper::Pow2(Pow2Mapper::new(1)),
            policy,
        )
    }

    /// The paper's prime-mapped cache: `2^c − 1` direct-mapped lines.
    ///
    /// # Errors
    ///
    /// See [`CacheConfigError`].
    pub fn prime_mapped(exponent: u32, line_words: u64) -> Result<Self, CacheConfigError> {
        Self::prime_mapped_associative(exponent, 1, line_words, ReplacementPolicy::Lru)
    }

    /// A prime-mapped cache with `2^c − 1` sets of `ways` lines — an
    /// extension the paper leaves open (its design is direct-mapped).
    ///
    /// # Errors
    ///
    /// See [`CacheConfigError`].
    pub fn prime_mapped_associative(
        exponent: u32,
        ways: u64,
        line_words: u64,
        policy: ReplacementPolicy,
    ) -> Result<Self, CacheConfigError> {
        if ways == 0 {
            return Err(CacheConfigError::ZeroSize);
        }
        if !line_words.is_power_of_two() {
            return Err(CacheConfigError::BadLineWords { line_words });
        }
        let mapper =
            PrimeMapper::new(exponent).map_err(|e| CacheConfigError::BadMersenneExponent {
                exponent: e.exponent(),
            })?;
        Self::build(
            Geometry::new(mapper.num_sets(), ways, line_words),
            Mapper::Prime(mapper),
            policy,
        )
    }

    /// Allocates the slot arrays once the geometry passes the allocation
    /// bound, which every constructor funnels through.
    fn build(
        geometry: Geometry,
        mapper: Mapper,
        policy: ReplacementPolicy,
    ) -> Result<Self, CacheConfigError> {
        let sets = geometry.sets();
        if sets > MAX_SIMULATED_LINES {
            return Err(CacheConfigError::TooManySets { sets });
        }
        let lines = sets.saturating_mul(geometry.ways());
        if lines > MAX_SIMULATED_LINES {
            return Err(CacheConfigError::TooManyLines { lines });
        }
        // Both fit: they are at most 2^28.
        let (slots, ways) = (lines as usize, geometry.ways() as usize);
        Ok(Self {
            geometry,
            mapper,
            policy,
            ways,
            tags: vec![0; slots],
            streams: vec![0; slots],
            last_use: vec![0; slots],
            filled_at: vec![0; slots],
            ranks: Vec::new(),
            shadow: ShadowCache::new(lines),
            stats: CacheStats::default(),
            clock: 0,
            rng: StdRng::seed_from_u64(RANDOM_SEED),
        })
    }

    /// The geometry in effect.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// The mapping scheme name (`"pow2"` or `"prime"`).
    #[must_use]
    pub fn scheme_name(&self) -> &'static str {
        self.mapper.scheme_name()
    }

    /// The replacement policy in effect.
    #[must_use]
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The set index the mapper assigns to `word`.
    #[must_use]
    pub fn set_of(&self, word: WordAddr) -> u64 {
        self.mapper.index(word.line(self.geometry.line_words()))
    }

    /// True if the line containing `word` is resident.
    #[must_use]
    pub fn contains(&self, word: WordAddr) -> bool {
        let line = word.line(self.geometry.line_words());
        let first = self.mapper.index(line) as usize * self.ways;
        let key = line.value().wrapping_add(1);
        (first..first + self.ways).any(|slot| self.holds(slot, key))
    }

    /// True if `slot` holds the line tagged `key`. The one line whose tag
    /// wraps to the empty tag 0 (`u64::MAX`) is told from an empty slot by
    /// its use stamp.
    fn holds(&self, slot: usize, key: u64) -> bool {
        self.tags[slot] == key && (key != 0 || self.last_use[slot] != 0)
    }

    /// Accesses `word` on behalf of `stream`, updating residency, the
    /// classification shadow, and counters.
    pub fn access(&mut self, word: WordAddr, stream: StreamId) -> AccessResult {
        self.clock += 1;
        let line = word.line(self.geometry.line_words());
        let set = self.mapper.index(line);
        let verdict = self.shadow.touch(line);
        let key = line.value().wrapping_add(1);
        let first = set as usize * self.ways;

        let hit = if self.ways == 1 {
            self.holds(first, key).then_some(first)
        } else {
            (first..first + self.ways).find(|&slot| self.holds(slot, key))
        };
        if let Some(slot) = hit {
            self.last_use[slot] = self.clock;
            self.streams[slot] = stream.value();
            self.stats.record_hit();
            return AccessResult {
                line,
                set,
                miss: None,
                evicted: None,
            };
        }

        // Miss: fill an empty slot, or replace the policy's victim.
        let slot = if self.ways == 1 {
            first
        } else {
            self.victim(first)
        };
        let evicted = (self.last_use[slot] != 0).then(|| {
            (
                LineAddr::new(self.tags[slot].wrapping_sub(1)),
                self.streams[slot],
            )
        });
        self.tags[slot] = key;
        self.streams[slot] = stream.value();
        self.last_use[slot] = self.clock;
        self.filled_at[slot] = self.clock;

        let kind = match verdict {
            ShadowVerdict::ColdMiss => MissKind::Compulsory,
            ShadowVerdict::CapacityMiss => MissKind::Capacity,
            ShadowVerdict::Hit => {
                // The mapping is at fault. Attribute by the displaced line's
                // stream; a miss with no eviction but a shadow hit means the
                // line was previously displaced by some earlier conflict —
                // attribute by the stream of whatever displaced it; lacking
                // that history, fall back on the incoming stream (self).
                match evicted {
                    Some((_, owner)) if owner != stream.value() => MissKind::ConflictCross,
                    _ => MissKind::ConflictSelf,
                }
            }
        };
        self.stats.record_miss(kind);

        AccessResult {
            line,
            set,
            miss: Some(kind),
            evicted: evicted.map(|(line, _)| line),
        }
    }

    /// The slot a miss into the set whose first slot is `first` fills.
    ///
    /// Empty slots carry use stamp 0, so while the set has one the least
    /// recently used slot is empty and gets the line. In a full set every
    /// stamp is distinct and the policy decides: LRU takes the smallest use
    /// stamp, FIFO the smallest fill stamp, and Random draws a rank `r`
    /// uniformly from `0..ways` and takes the slot whose use stamp is the
    /// `r`-th smallest.
    fn victim(&mut self, first: usize) -> usize {
        let set = first..first + self.ways;
        let oldest = |stamps: &[u64]| {
            set.clone()
                .min_by_key(|&slot| stamps[slot])
                .unwrap_or(first)
        };
        let lru = oldest(&self.last_use);
        if self.last_use[lru] == 0 {
            return lru;
        }
        match self.policy {
            ReplacementPolicy::Lru => lru,
            ReplacementPolicy::Fifo => oldest(&self.filled_at),
            ReplacementPolicy::Random => {
                let rank = self.rng.random_range(0..self.ways);
                self.ranks.clear();
                self.ranks.extend_from_slice(&self.last_use[set.clone()]);
                let stamp = *self.ranks.select_nth_unstable(rank).1;
                set.clone()
                    .find(|&slot| self.last_use[slot] == stamp)
                    .unwrap_or(lru)
            }
        }
    }

    /// Accesses `word` exactly like [`CacheSim::access`], additionally
    /// emitting a [`TraceEvent::CacheAccess`] into `sink`.
    ///
    /// The event is synthesized from the returned [`AccessResult`], so
    /// over [`NullSink`] it folds away.
    pub fn access_traced<S: TraceSink + ?Sized>(
        &mut self,
        word: WordAddr,
        stream: StreamId,
        sink: &mut S,
    ) -> AccessResult {
        let result = self.access(word, stream);
        sink.record(&TraceEvent::CacheAccess {
            seq: self.clock,
            word: word.value(),
            stream: stream.value(),
            set: result.set,
            miss: result.miss.map(MissKind::trace_class),
            evicted: result.evicted.map(|l| l.value()),
        });
        result
    }

    /// Runs a strided vector through the cache like
    /// [`CacheSim::access_stream`], emitting one event per access.
    /// Returns the number of misses.
    pub fn access_stream_traced<S: TraceSink + ?Sized>(
        &mut self,
        base: WordAddr,
        stride: u64,
        length: u64,
        stream: StreamId,
        sink: &mut S,
    ) -> u64 {
        let mut misses = 0;
        for i in 0..length {
            if !self
                .access_traced(base.offset(i, stride), stream, sink)
                .is_hit()
            {
                misses += 1;
            }
        }
        misses
    }

    /// Runs a strided vector through the cache: `length` words starting at
    /// `base`, `stride` words apart, all tagged with `stream`. Returns the
    /// number of misses.
    pub fn access_stream(
        &mut self,
        base: WordAddr,
        stride: u64,
        length: u64,
        stream: StreamId,
    ) -> u64 {
        self.access_stream_traced(base, stride, length, stream, &mut NullSink)
    }

    /// Replays a tagged word sequence `sweeps` times and returns the
    /// accumulated conflict-miss count (classified by the shadow cache).
    ///
    /// This is the differential-validation hook for the static analyzer:
    /// a conflict-freedom verdict or certificate is checked by replaying
    /// the footprint twice — the second sweep can only miss on index
    /// collisions (or capacity), so within capacity zero conflict misses
    /// here is the ground truth for `ConflictFree`.
    pub fn replay_sweeps<I>(&mut self, words: I, sweeps: u64) -> u64
    where
        I: IntoIterator<Item = (u64, u32)>,
        I::IntoIter: Clone,
    {
        let it = words.into_iter();
        for _ in 0..sweeps {
            for (word, stream) in it.clone() {
                self.access(WordAddr::new(word), StreamId::new(stream));
            }
        }
        self.stats().conflict_misses()
    }

    /// Empties the cache and clears counters. The Random policy's
    /// generator keeps its state.
    ///
    /// Every resident line was seen by the shadow since the last reset.
    /// While the shadow has evicted none of them it lists them all, and
    /// only their sets are zeroed, so a short trace is undone at the cost
    /// of its own lines. Otherwise every slot is zeroed.
    pub fn reset(&mut self) {
        let Self {
            mapper,
            ways,
            tags,
            streams,
            last_use,
            filled_at,
            shadow,
            ..
        } = self;
        let walked = shadow.clear(|line| {
            let first = mapper.index(line) as usize * *ways;
            // A set fills from its first slot, so an empty first slot
            // means the set is empty or already zeroed.
            if last_use[first] != 0 {
                let set = first..first + *ways;
                tags[set.clone()].fill(0);
                streams[set.clone()].fill(0);
                last_use[set.clone()].fill(0);
                filled_at[set].fill(0);
            }
        });
        if !walked {
            self.tags.fill(0);
            self.streams.fill(0);
            self.last_use.fill(0);
            self.filled_at.fill(0);
        }
        self.stats = CacheStats::default();
        self.clock = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s0() -> StreamId {
        StreamId::new(0)
    }

    #[test]
    fn constructor_validation() {
        assert!(CacheSim::direct_mapped(8, 1).is_ok());
        assert!(matches!(
            CacheSim::direct_mapped(6, 1),
            Err(CacheConfigError::LinesNotPowerOfTwo { .. })
        ));
        assert!(matches!(
            CacheSim::direct_mapped(0, 1),
            Err(CacheConfigError::ZeroSize)
        ));
        assert!(matches!(
            CacheSim::direct_mapped(8, 3),
            Err(CacheConfigError::BadLineWords { line_words: 3 })
        ));
        assert!(matches!(
            CacheSim::set_associative(8, 3, 1, ReplacementPolicy::Lru),
            Err(CacheConfigError::WaysDoNotDivideLines { .. })
        ));
        assert!(matches!(
            CacheSim::prime_mapped(11, 1),
            Err(CacheConfigError::BadMersenneExponent { exponent: 11 })
        ));
        assert!(CacheSim::prime_mapped(13, 1).is_ok());
        // 2^61 - 1 is a valid Mersenne prime but not a simulatable size.
        assert!(matches!(
            CacheSim::prime_mapped(61, 1),
            Err(CacheConfigError::TooManySets { .. })
        ));
        assert!(matches!(
            CacheSim::direct_mapped(1 << 40, 1),
            Err(CacheConfigError::TooManySets { .. })
        ));
        assert!(CacheSim::fully_associative(16, 1, ReplacementPolicy::Lru).is_ok());
        assert!(matches!(
            CacheSim::fully_associative(0, 1, ReplacementPolicy::Lru),
            Err(CacheConfigError::ZeroSize)
        ));
        // Sets within bound but sets × ways past it: 2^20 sets of 2^20 ways.
        assert_eq!(
            CacheSim::set_associative(1 << 40, 1 << 20, 1, ReplacementPolicy::Lru).err(),
            Some(CacheConfigError::TooManyLines { lines: 1 << 40 })
        );
        assert_eq!(
            CacheSim::fully_associative((1 << 28) + 1, 1, ReplacementPolicy::Lru).err(),
            Some(CacheConfigError::TooManyLines {
                lines: (1 << 28) + 1
            })
        );
        assert_eq!(
            CacheSim::prime_mapped_associative(13, 1 << 20, 1, ReplacementPolicy::Lru).err(),
            Some(CacheConfigError::TooManyLines { lines: 8191 << 20 })
        );
        // sets × ways overflows u64: reported saturated, not wrapped.
        assert_eq!(
            CacheSim::prime_mapped_associative(19, u64::MAX, 1, ReplacementPolicy::Lru).err(),
            Some(CacheConfigError::TooManyLines { lines: u64::MAX })
        );
        assert!(CacheSim::fully_associative(1 << 28, 1, ReplacementPolicy::Lru).is_ok());
    }

    #[test]
    fn error_messages() {
        for e in [
            CacheConfigError::LinesNotPowerOfTwo { lines: 6 },
            CacheConfigError::WaysDoNotDivideLines { lines: 8, ways: 3 },
            CacheConfigError::BadLineWords { line_words: 3 },
            CacheConfigError::BadMersenneExponent { exponent: 11 },
            CacheConfigError::ZeroSize,
            CacheConfigError::TooManySets { sets: 1 << 61 },
            CacheConfigError::TooManyLines { lines: 1 << 40 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = CacheSim::direct_mapped(8, 1).unwrap();
        let r = c.access(WordAddr::new(5), s0());
        assert_eq!(r.miss, Some(MissKind::Compulsory));
        assert_eq!(r.set, 5);
        let r = c.access(WordAddr::new(5), s0());
        assert!(r.is_hit());
        assert!(c.contains(WordAddr::new(5)));
    }

    #[test]
    fn direct_mapped_conflict_same_set() {
        let mut c = CacheSim::direct_mapped(8, 1).unwrap();
        c.access(WordAddr::new(0), s0());
        let r = c.access(WordAddr::new(8), s0()); // same set 0
        assert_eq!(r.miss, Some(MissKind::Compulsory)); // first touch of line 8
        assert_eq!(r.evicted, Some(LineAddr::new(0)));
        // Re-touch line 0: shadow (8 lines, only 2 touched) still holds it →
        // conflict, displaced by same stream → self-interference.
        let r = c.access(WordAddr::new(0), s0());
        assert_eq!(r.miss, Some(MissKind::ConflictSelf));
    }

    #[test]
    fn cross_interference_attributed_to_other_stream() {
        let mut c = CacheSim::direct_mapped(8, 1).unwrap();
        let (a, b) = (StreamId::new(1), StreamId::new(2));
        c.access(WordAddr::new(0), a);
        c.access(WordAddr::new(8), b); // b evicts a's line
        let r = c.access(WordAddr::new(0), a); // a misses; victim (line 8) is b's
        assert_eq!(r.miss, Some(MissKind::ConflictCross));
        assert_eq!(c.stats().cross_interference_misses, 1);
    }

    #[test]
    fn capacity_miss_when_working_set_exceeds_cache() {
        let mut c = CacheSim::direct_mapped(4, 1).unwrap();
        // Touch 8 distinct lines twice: second pass misses are capacity
        // (the 4-line fully-associative shadow cannot hold 8 lines either).
        for pass in 0..2 {
            for i in 0..8u64 {
                let r = c.access(WordAddr::new(i * 4), s0()); // all map to set 0? no: i*4 mod 4
                let _ = (pass, r);
            }
        }
        // 8 lines with stride 4 on 4 sets: lines 0,4,8,..28 → sets 0,..;
        // line addr = word addr (1 word/line): sets = addr mod 4 = 0.
        // All in set 0 → direct cache thrashes; shadow holds last 4 lines.
        let s = c.stats();
        assert_eq!(s.accesses, 16);
        assert_eq!(s.hits, 0);
        assert_eq!(s.compulsory_misses, 8);
        // Second pass: line i was evicted from the shadow (8 > 4) → capacity.
        assert_eq!(s.capacity_misses, 8);
    }

    #[test]
    fn set_associative_absorbs_pow2_stride_conflicts_up_to_ways() {
        // 4 lines mapping to one set: 4-way associativity holds them all.
        let mut c = CacheSim::set_associative(32, 4, 1, ReplacementPolicy::Lru).unwrap();
        for _ in 0..2 {
            for i in 0..4u64 {
                c.access(WordAddr::new(i * 8), s0()); // set = (i*8) mod 8 = 0
            }
        }
        assert_eq!(c.stats().hits, 4);
        assert_eq!(c.stats().conflict_misses(), 0);
    }

    #[test]
    fn lru_replacement_in_set() {
        let mut c = CacheSim::set_associative(4, 2, 1, ReplacementPolicy::Lru).unwrap();
        // Set 0 gets lines 0, 2, touch 0, then 4 evicts LRU (=2).
        c.access(WordAddr::new(0), s0());
        c.access(WordAddr::new(2), s0());
        c.access(WordAddr::new(0), s0());
        let r = c.access(WordAddr::new(4), s0());
        assert_eq!(r.evicted, Some(LineAddr::new(2)));
        assert!(c.contains(WordAddr::new(0)));
    }

    #[test]
    fn fifo_replacement_ignores_reuse() {
        let mut c = CacheSim::set_associative(4, 2, 1, ReplacementPolicy::Fifo).unwrap();
        c.access(WordAddr::new(0), s0());
        c.access(WordAddr::new(2), s0());
        c.access(WordAddr::new(0), s0()); // reuse does not save line 0 under FIFO
        let r = c.access(WordAddr::new(4), s0());
        assert_eq!(r.evicted, Some(LineAddr::new(0)));
    }

    #[test]
    fn random_victim_is_the_slot_at_the_drawn_lru_rank() {
        let mut c = CacheSim::fully_associative(4, 1, ReplacementPolicy::Random).unwrap();
        // Fill lines 0..4, then re-use them so LRU order is 2, 0, 3, 1.
        for w in [0, 1, 2, 3, 2, 0, 3, 1] {
            c.access(WordAddr::new(w), s0());
        }
        let rank = StdRng::seed_from_u64(RANDOM_SEED).random_range(0..4usize);
        let r = c.access(WordAddr::new(9), s0());
        assert_eq!(r.evicted, Some(LineAddr::new([2, 0, 3, 1][rank])));
    }

    #[test]
    fn the_largest_line_address_is_not_an_empty_slot() {
        // Its tag wraps to the empty tag 0; a cold cache must still miss.
        for mut c in [
            CacheSim::direct_mapped(8, 1).unwrap(),
            CacheSim::set_associative(8, 2, 1, ReplacementPolicy::Lru).unwrap(),
        ] {
            let top = WordAddr::new(u64::MAX);
            assert!(!c.contains(top));
            assert_eq!(c.access(top, s0()).miss, Some(MissKind::Compulsory));
            assert!(c.contains(top));
            assert!(c.access(top, s0()).is_hit());
            let r = c.access(WordAddr::new(7), s0()); // same set as u64::MAX
            if c.geometry().ways() == 1 {
                assert_eq!(r.evicted, Some(LineAddr::new(u64::MAX)));
            } else {
                assert!(c.contains(top));
            }
        }
    }

    #[test]
    fn prime_mapped_pow2_stride_is_conflict_free() {
        // The paper's headline behaviour, at paper scale: C = 8191 lines,
        // stride 512 (a 2-power), vector of 8191 elements → every line maps
        // to a distinct set; a second pass hits every time.
        let mut c = CacheSim::prime_mapped(13, 1).unwrap();
        let misses1 = c.access_stream(WordAddr::new(0), 512, 8191, s0());
        let misses2 = c.access_stream(WordAddr::new(0), 512, 8191, s0());
        assert_eq!(misses1, 8191); // all compulsory
        assert_eq!(misses2, 0);
        assert_eq!(c.stats().conflict_misses(), 0);
    }

    #[test]
    fn direct_mapped_pow2_stride_thrashes() {
        // Contrast case: same experiment on the 8192-line direct cache.
        // Stride 512 touches 8192/gcd(8192,512) = 16 sets only.
        let mut c = CacheSim::direct_mapped(8192, 1).unwrap();
        let n = 8191;
        c.access_stream(WordAddr::new(0), 512, n, s0());
        let misses2 = c.access_stream(WordAddr::new(0), 512, n, s0());
        assert_eq!(misses2, n); // zero reuse
        assert!(c.stats().conflict_misses() > 0);
    }

    #[test]
    fn traced_stream_equals_the_plain_stream() {
        let caches = || {
            [
                CacheSim::direct_mapped(8192, 1),
                CacheSim::set_associative(8192, 4, 1, ReplacementPolicy::Lru),
                CacheSim::prime_mapped(13, 1),
            ]
        };
        for (plain, traced) in caches().into_iter().zip(caches()) {
            let (mut plain, mut traced) = (plain.unwrap(), traced.unwrap());
            let mut ring = vcache_trace::RingSink::new(usize::MAX);
            let streams = [(1, 4096, 0), (24, 4096, 1), (512, 8191, 0), (8192, 64, 1)];
            for (stride, length, stream) in streams.into_iter().cycle().take(8) {
                let (base, stream) = (WordAddr::new(stream.into()), StreamId::new(stream));
                let misses = plain.access_stream(base, stride, length, stream);
                let traced_misses =
                    traced.access_stream_traced(base, stride, length, stream, &mut ring);
                assert_eq!(traced_misses, misses, "stride {stride}");
            }
            assert_eq!(traced.stats(), plain.stats());
            assert_eq!(ring.dropped(), 0);
            assert_eq!(ring.len() as u64, plain.stats().accesses);
        }
    }

    #[test]
    fn fully_associative_no_conflicts_by_construction() {
        let mut c = CacheSim::fully_associative(8, 1, ReplacementPolicy::Lru).unwrap();
        for i in 0..64u64 {
            c.access(WordAddr::new(i % 16), s0());
        }
        assert_eq!(c.stats().conflict_misses(), 0);
    }

    #[test]
    fn line_size_exploits_spatial_locality() {
        let mut c = CacheSim::direct_mapped(8, 4).unwrap();
        c.access(WordAddr::new(0), s0());
        for w in 1..4u64 {
            assert!(c.access(WordAddr::new(w), s0()).is_hit(), "word {w}");
        }
        assert!(!c.access(WordAddr::new(4), s0()).is_hit());
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = CacheSim::prime_mapped(5, 1).unwrap();
        c.access(WordAddr::new(1), s0());
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(!c.contains(WordAddr::new(1)));
    }

    #[test]
    fn replay_sweeps_matches_manual_double_sweep() {
        // 8 lines all mapping to set 0 of a 16-line direct cache: the
        // second sweep misses on every one and the shadow classifies the
        // repeats as conflicts.
        let colliding: Vec<(u64, u32)> = (0..8u64).map(|i| (i * 16, 0)).collect();
        let mut c = CacheSim::direct_mapped(16, 1).unwrap();
        let conflicts = c.replay_sweeps(colliding.iter().copied(), 2);
        assert!(conflicts > 0);
        assert_eq!(conflicts, c.stats().conflict_misses());
        // A unit-stride footprint that fits is conflict-free.
        let mut c = CacheSim::direct_mapped(16, 1).unwrap();
        assert_eq!(c.replay_sweeps((0..8u64).map(|w| (w, 0)), 2), 0);
    }

    #[test]
    fn accessors() {
        let c = CacheSim::prime_mapped(5, 1).unwrap();
        assert_eq!(c.geometry().total_lines(), 31);
        assert_eq!(c.scheme_name(), "prime");
        assert_eq!(c.policy(), ReplacementPolicy::Lru);
        assert_eq!(c.set_of(WordAddr::new(32)), 1);
        assert_eq!(StreamId::new(3).to_string(), "stream3");
        assert_eq!(StreamId::new(3).value(), 3);
    }
}
