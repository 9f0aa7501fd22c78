//! Layer 2: static conflict analysis of VCM programs — no simulation.
//!
//! For a cache geometry (set count `S`, line size) and a
//! [`Program`](vcache_workloads::Program) of strided vector accesses, this
//! module *proves* whether the program's line footprint can collide in the
//! index function, using the paper's number theory instead of running the
//! cache:
//!
//! * A line-aligned access with line stride `g` visits an **orbit** of
//!   `S / gcd(S, g mod S)` sets. For the Mersenne-prime geometry
//!   `S = 2^c − 1`, Eq. 8 of the paper says `gcd(S, g) ∈ {1, S}`, so every
//!   stride not congruent to 0 mod `S` walks *all* sets — the analytic
//!   heart of the design.
//! * With `d` distinct lines spread round-robin over an orbit of size
//!   `orbit`, the number of sets holding ≥ 2 of them is
//!   `0` if `d ≤ orbit`, else `min(orbit, d − orbit)`.
//! * Cross-stream interference is a footprint intersection: two *distinct*
//!   lines of *different* streams mapping to one set.
//!
//! The verdict is exact, not probabilistic: the same line-to-set map the
//! simulator applies is evaluated over the program's distinct-line
//! footprint, so [`Verdict::ConflictFree`] is a proof that a direct-mapped
//! cache of this geometry takes zero conflict misses on the program (when
//! the footprint also fits capacity — see
//! [`ProgramAnalysis::exceeds_capacity`]).

use std::fmt;

use serde::Serialize;
use vcache_mersenne::numtheory::gcd;
use vcache_mersenne::{MersenneModulus, MersenneModulusError};
use vcache_workloads::{Program, VectorAccess};

/// Enumeration guard: programs touching more words than this are rejected
/// rather than silently taking unbounded time/memory.
pub const MAX_ANALYZED_WORDS: u64 = 1 << 24;

/// A cache geometry as seen by the index function: a set count and a line
/// size in words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Geometry {
    /// Conventional power-of-two mapping: `set = line & (sets − 1)`.
    Pow2 {
        /// Set count; always a power of two.
        sets: u64,
        /// Words per cache line.
        line_words: u64,
    },
    /// Mersenne-prime mapping: `set = line mod (2^c − 1)`.
    Prime {
        /// The validated modulus `2^c − 1`.
        modulus: MersenneModulus,
        /// Words per cache line.
        line_words: u64,
    },
}

/// Error constructing a [`Geometry`] or analyzing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// `Pow2` set count was zero or not a power of two.
    BadPow2Sets(u64),
    /// Prime exponent is not a supported Mersenne exponent.
    BadExponent(MersenneModulusError),
    /// Line size must be a positive power of two (address splitting).
    BadLineWords(u64),
    /// Program touches more than [`MAX_ANALYZED_WORDS`] words.
    ProgramTooLarge {
        /// Words the program touches.
        words: u64,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadPow2Sets(s) => {
                write!(f, "pow2 geometry needs a power-of-two set count, got {s}")
            }
            Self::BadExponent(e) => write!(f, "{e}"),
            Self::BadLineWords(w) => {
                write!(
                    f,
                    "line size must be a positive power of two words, got {w}"
                )
            }
            Self::ProgramTooLarge { words } => write!(
                f,
                "program touches {words} words, above the {MAX_ANALYZED_WORDS}-word analysis bound"
            ),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl Geometry {
    /// A power-of-two geometry with `sets` sets.
    ///
    /// # Errors
    ///
    /// Rejects a set count that is zero or not a power of two, and a line
    /// size that is zero or not a power of two.
    pub fn pow2(sets: u64, line_words: u64) -> Result<Self, AnalysisError> {
        if sets == 0 || !sets.is_power_of_two() {
            return Err(AnalysisError::BadPow2Sets(sets));
        }
        check_line_words(line_words)?;
        Ok(Self::Pow2 { sets, line_words })
    }

    /// A Mersenne-prime geometry with `2^exponent − 1` sets.
    ///
    /// # Errors
    ///
    /// Rejects unsupported exponents and bad line sizes.
    pub fn prime(exponent: u32, line_words: u64) -> Result<Self, AnalysisError> {
        let modulus = MersenneModulus::new(exponent).map_err(AnalysisError::BadExponent)?;
        check_line_words(line_words)?;
        Ok(Self::Prime {
            modulus,
            line_words,
        })
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        match self {
            Self::Pow2 { sets, .. } => *sets,
            Self::Prime { modulus, .. } => modulus.value(),
        }
    }

    /// Words per line.
    #[must_use]
    pub fn line_words(&self) -> u64 {
        match self {
            Self::Pow2 { line_words, .. } | Self::Prime { line_words, .. } => *line_words,
        }
    }

    /// The set a line maps to.
    #[must_use]
    pub fn set_of_line(&self, line: u64) -> u64 {
        match self {
            Self::Pow2 { sets, .. } => line & (sets - 1),
            Self::Prime { modulus, .. } => modulus.reduce(line),
        }
    }

    /// Short tag for reports: `pow2` or `prime`.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Pow2 { .. } => "pow2",
            Self::Prime { .. } => "prime",
        }
    }
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{} sets x {} words]",
            self.kind(),
            self.sets(),
            self.line_words()
        )
    }
}

fn check_line_words(line_words: u64) -> Result<(), AnalysisError> {
    if line_words == 0 || !line_words.is_power_of_two() {
        return Err(AnalysisError::BadLineWords(line_words));
    }
    Ok(())
}

/// The static verdict for one (program, geometry) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Verdict {
    /// No two distinct lines of the footprint share a set: a direct-mapped
    /// cache of this geometry takes zero conflict misses on the program.
    ConflictFree,
    /// Some stream maps ≥ 2 of its own distinct lines to one set.
    SelfInterfering {
        /// Smallest set-orbit among the aligned accesses that collide
        /// within themselves (0 when the collision is only *between*
        /// accesses of the same stream).
        orbit: u64,
        /// Sets holding ≥ 2 distinct lines of a single stream.
        predicted_conflict_sets: u64,
    },
    /// Distinct lines of *different* streams share a set (and no stream
    /// self-interferes).
    CrossInterfering {
        /// Sets holding distinct lines from ≥ 2 streams.
        predicted_conflict_sets: u64,
    },
}

impl Verdict {
    /// True for [`Verdict::ConflictFree`].
    #[must_use]
    pub fn is_conflict_free(&self) -> bool {
        matches!(self, Self::ConflictFree)
    }

    /// Coarse label: `conflict-free`, `self-interfering`, `cross-interfering`.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::ConflictFree => "conflict-free",
            Self::SelfInterfering { .. } => "self-interfering",
            Self::CrossInterfering { .. } => "cross-interfering",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ConflictFree => write!(f, "conflict-free"),
            Self::SelfInterfering {
                orbit,
                predicted_conflict_sets,
            } => write!(
                f,
                "self-interfering (orbit {orbit}, {predicted_conflict_sets} conflict sets)"
            ),
            Self::CrossInterfering {
                predicted_conflict_sets,
            } => write!(
                f,
                "cross-interfering ({predicted_conflict_sets} conflict sets)"
            ),
        }
    }
}

/// Per-access detail of a [`ProgramAnalysis`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct AccessAnalysis {
    /// Stream tag of the access.
    pub stream: u32,
    /// Base word address.
    pub base: u64,
    /// Word stride.
    pub stride: i64,
    /// Element count.
    pub length: u64,
    /// Distinct cache lines the access touches.
    pub distinct_lines: u64,
    /// `S / gcd(S, g mod S)` for line-aligned accesses with line stride
    /// `g`; `None` when the word stride is not a multiple of the line size
    /// (the line sequence is then not an arithmetic progression).
    pub orbit: Option<u64>,
    /// Sets holding ≥ 2 distinct lines of *this access alone*.
    pub within_conflict_sets: u64,
}

/// Complete static analysis of one (program, geometry) pair.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ProgramAnalysis {
    /// Program name.
    pub program: String,
    /// Geometry tag (`pow2` / `prime`).
    pub geometry: &'static str,
    /// Set count of the geometry.
    pub sets: u64,
    /// Words per line.
    pub line_words: u64,
    /// The verdict.
    pub verdict: Verdict,
    /// Distinct lines across the whole program.
    pub distinct_lines: u64,
    /// True when the footprint exceeds the set count, so capacity misses
    /// would occur even in a fully-associative cache of `sets` lines. The
    /// conflict verdict is still exact, but a simulator's shadow-cache
    /// classification will attribute some repeat misses to capacity.
    pub exceeds_capacity: bool,
    /// Sets with ≥ 2 distinct lines of one stream.
    pub self_conflict_sets: u64,
    /// Sets with distinct lines from ≥ 2 streams.
    pub cross_conflict_sets: u64,
    /// Per-access details, in program order.
    pub accesses: Vec<AccessAnalysis>,
}

/// Orbit size of line stride `g_abs` in a cycle of `sets` sets, and the
/// number of conflict sets when `d` distinct lines walk that orbit.
fn orbit_and_conflicts(geometry: &Geometry, g_abs: u64, d: u64) -> (u64, u64) {
    let sets = geometry.sets();
    let r = match geometry {
        Geometry::Pow2 { sets, .. } => g_abs & (sets - 1),
        Geometry::Prime { modulus, .. } => modulus.reduce(g_abs),
    };
    let orbit = if r == 0 { 1 } else { sets / gcd(sets, r) };
    let conflicts = if d <= orbit { 0 } else { orbit.min(d - orbit) };
    (orbit, conflicts)
}

fn analyze_access(access: &VectorAccess, geometry: &Geometry) -> AccessAnalysis {
    let line_words = geometry.line_words();
    let mut lines: Vec<u64> = access.words().map(|word| word / line_words).collect();
    lines.sort_unstable();
    lines.dedup();
    let distinct = lines.len() as u64;
    let aligned = access.stride.unsigned_abs().is_multiple_of(line_words);
    let orbit = if aligned {
        let g_abs = access.stride.unsigned_abs() / line_words;
        Some(orbit_and_conflicts(geometry, g_abs, distinct).0)
    } else {
        None
    };
    // The distinct lines become their sets; a run of ≥ 2 equal sets is a
    // set holding ≥ 2 distinct lines of this access.
    let mut sets = lines;
    for line in &mut sets {
        *line = geometry.set_of_line(*line);
    }
    sets.sort_unstable();
    let within = sets
        .chunk_by(|a, b| a == b)
        .filter(|run| run.len() >= 2)
        .count() as u64;
    AccessAnalysis {
        stream: access.stream,
        base: access.base,
        stride: access.stride,
        length: access.length,
        distinct_lines: distinct,
        orbit,
        within_conflict_sets: within,
    }
}

/// Statically analyzes `program` against `geometry`.
///
/// # Errors
///
/// Returns [`AnalysisError::ProgramTooLarge`] when the program touches
/// more than [`MAX_ANALYZED_WORDS`] words.
pub fn analyze_program(
    program: &Program,
    geometry: &Geometry,
) -> Result<ProgramAnalysis, AnalysisError> {
    let words = program.total_elements();
    if words > MAX_ANALYZED_WORDS {
        return Err(AnalysisError::ProgramTooLarge { words });
    }

    let line_words = geometry.line_words();
    // The footprint's distinct (line, stream) pairs, keyed by set: sorted
    // as (set, stream, line), each set is one run, its streams are runs
    // within it, and no triple repeats.
    let footprint = program.footprint(line_words);
    let mut distinct_lines = 0u64;
    let mut by_set: Vec<(u64, u32, u64)> = Vec::with_capacity(footprint.len());
    for (i, &(line, stream)) in footprint.iter().enumerate() {
        if i == 0 || footprint[i - 1].0 != line {
            distinct_lines += 1;
        }
        by_set.push((geometry.set_of_line(line), stream, line));
    }
    by_set.sort_unstable();

    let (mut self_conflict_sets, mut cross_conflict_sets) = (0u64, 0u64);
    for set in by_set.chunk_by(|a, b| a.0 == b.0) {
        let (_, stream, line) = set[0];
        // A stream with two triples in one set has two distinct lines there.
        if set.windows(2).any(|pair| pair[0].1 == pair[1].1) {
            self_conflict_sets += 1;
        }
        if set.iter().any(|t| t.2 != line) && set.iter().any(|t| t.1 != stream) {
            cross_conflict_sets += 1;
        }
    }

    let accesses: Vec<AccessAnalysis> = program
        .accesses
        .iter()
        .map(|a| analyze_access(a, geometry))
        .collect();

    let verdict = if self_conflict_sets > 0 {
        let orbit = accesses
            .iter()
            .filter(|a| a.within_conflict_sets > 0)
            .filter_map(|a| a.orbit)
            .min()
            .unwrap_or(0);
        Verdict::SelfInterfering {
            orbit,
            predicted_conflict_sets: self_conflict_sets,
        }
    } else if cross_conflict_sets > 0 {
        Verdict::CrossInterfering {
            predicted_conflict_sets: cross_conflict_sets,
        }
    } else {
        Verdict::ConflictFree
    };

    Ok(ProgramAnalysis {
        program: program.name.clone(),
        geometry: geometry.kind(),
        sets: geometry.sets(),
        line_words,
        verdict,
        distinct_lines,
        exceeds_capacity: distinct_lines > geometry.sets(),
        self_conflict_sets,
        cross_conflict_sets,
        accesses,
    })
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use vcache_workloads::VectorAccess;

    fn prog(accesses: Vec<VectorAccess>) -> Program {
        Program::new("t", accesses)
    }

    /// The reference the sorted-footprint analysis is checked against:
    /// ordered trees with one node per line, per stream and per set.
    fn reference_analyze_access(access: &VectorAccess, geometry: &Geometry) -> AccessAnalysis {
        let line_words = geometry.line_words();
        let mut per_set: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
        let mut lines: BTreeSet<u64> = BTreeSet::new();
        for word in access.words() {
            let line = word / line_words;
            lines.insert(line);
            per_set
                .entry(geometry.set_of_line(line))
                .or_default()
                .insert(line);
        }
        let distinct = lines.len() as u64;
        let aligned = access.stride.unsigned_abs().is_multiple_of(line_words);
        let orbit = if aligned {
            let g_abs = access.stride.unsigned_abs() / line_words;
            Some(orbit_and_conflicts(geometry, g_abs, distinct).0)
        } else {
            None
        };
        let within = per_set.values().filter(|l| l.len() >= 2).count() as u64;
        AccessAnalysis {
            stream: access.stream,
            base: access.base,
            stride: access.stride,
            length: access.length,
            distinct_lines: distinct,
            orbit,
            within_conflict_sets: within,
        }
    }

    /// [`analyze_program`] by ordered trees, without the size guard.
    fn reference_analyze_program(program: &Program, geometry: &Geometry) -> ProgramAnalysis {
        #[derive(Default)]
        struct SetInfo {
            lines_per_stream: BTreeMap<u32, u64>,
            distinct_lines: u64,
            streams: BTreeSet<u32>,
        }
        let line_words = geometry.line_words();
        let mut streams_of_line: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
        for access in &program.accesses {
            for word in access.words() {
                streams_of_line
                    .entry(word / line_words)
                    .or_default()
                    .insert(access.stream);
            }
        }
        let mut per_set: BTreeMap<u64, SetInfo> = BTreeMap::new();
        for (&line, streams) in &streams_of_line {
            let info = per_set.entry(geometry.set_of_line(line)).or_default();
            info.distinct_lines += 1;
            for &s in streams {
                *info.lines_per_stream.entry(s).or_default() += 1;
                info.streams.insert(s);
            }
        }
        let self_conflict_sets = per_set
            .values()
            .filter(|i| i.lines_per_stream.values().any(|&n| n >= 2))
            .count() as u64;
        let cross_conflict_sets = per_set
            .values()
            .filter(|i| i.distinct_lines >= 2 && i.streams.len() >= 2)
            .count() as u64;
        let accesses: Vec<AccessAnalysis> = program
            .accesses
            .iter()
            .map(|a| reference_analyze_access(a, geometry))
            .collect();
        let verdict = if self_conflict_sets > 0 {
            let orbit = accesses
                .iter()
                .filter(|a| a.within_conflict_sets > 0)
                .filter_map(|a| a.orbit)
                .min()
                .unwrap_or(0);
            Verdict::SelfInterfering {
                orbit,
                predicted_conflict_sets: self_conflict_sets,
            }
        } else if cross_conflict_sets > 0 {
            Verdict::CrossInterfering {
                predicted_conflict_sets: cross_conflict_sets,
            }
        } else {
            Verdict::ConflictFree
        };
        let distinct_lines = streams_of_line.len() as u64;
        ProgramAnalysis {
            program: program.name.clone(),
            geometry: geometry.kind(),
            sets: geometry.sets(),
            line_words,
            verdict,
            distinct_lines,
            exceeds_capacity: distinct_lines > geometry.sets(),
            self_conflict_sets,
            cross_conflict_sets,
            accesses,
        }
    }

    /// A random program of 1–4 accesses over streams 0–3: strides that
    /// are zero, negative, line-aligned or set-resonant, bases aliased by
    /// multiples of `sets · line_words`, and verbatim repeats of earlier
    /// accesses.
    fn random_program(rng: &mut StdRng, sets: u64, line_words: u64) -> Program {
        let wrap = sets * line_words;
        let mut accesses: Vec<VectorAccess> = Vec::new();
        for _ in 0..rng.random_range(1..=4usize) {
            if !accesses.is_empty() && rng.random_range(0..4u32) == 0 {
                let again = accesses[rng.random_range(0..accesses.len())];
                accesses.push(again);
                continue;
            }
            let length = rng.random_range(1..=96u64);
            let stride = match rng.random_range(0..6u32) {
                0 => 0,
                1 => rng.random_range(-9..=9i64),
                2 => rng.random_range(-4..=4i64) * line_words as i64,
                3 => rng.random_range(-2..=2i64) * wrap as i64,
                4 => rng.random_range(-2..=2i64) * (wrap / 2) as i64,
                _ => rng.random_range(-300..=300i64),
            };
            // From 2^40, far enough that no negative stride wraps below 0.
            let base =
                (1 << 40) + rng.random_range(0..4u64) * wrap + rng.random_range(0..3 * line_words);
            accesses.push(VectorAccess::single(
                base,
                stride,
                length,
                rng.random_range(0..4u32),
            ));
        }
        prog(accesses)
    }

    #[test]
    fn sorted_footprint_analysis_equals_the_ordered_tree_reference() {
        let mut rng = StdRng::seed_from_u64(0x0F00_7921);
        let mut verdicts: BTreeMap<&str, usize> = BTreeMap::new();
        for line_words in [1, 2, 8] {
            let geometries = [
                Geometry::pow2(64, line_words).unwrap(),
                Geometry::pow2(8192, line_words).unwrap(),
                Geometry::prime(5, line_words).unwrap(),
                Geometry::prime(13, line_words).unwrap(),
            ];
            for geometry in geometries {
                for _ in 0..60 {
                    let program = random_program(&mut rng, geometry.sets(), line_words);
                    let fast = analyze_program(&program, &geometry).unwrap();
                    let reference = reference_analyze_program(&program, &geometry);
                    assert_eq!(
                        serde_json::to_string(&fast).unwrap(),
                        serde_json::to_string(&reference).unwrap(),
                        "{geometry}: {program:?}"
                    );
                    *verdicts.entry(fast.verdict.label()).or_default() += 1;
                }
            }
        }
        // The population reaches every verdict.
        assert_eq!(verdicts.len(), 3, "{verdicts:?}");
        assert!(verdicts.values().all(|&n| n >= 50), "{verdicts:?}");
    }

    #[test]
    fn geometry_validation() {
        assert!(Geometry::pow2(8192, 8).is_ok());
        assert!(matches!(
            Geometry::pow2(1000, 8),
            Err(AnalysisError::BadPow2Sets(1000))
        ));
        assert!(Geometry::prime(13, 8).is_ok());
        assert!(matches!(
            Geometry::prime(12, 8),
            Err(AnalysisError::BadExponent(_))
        ));
        assert!(matches!(
            Geometry::pow2(64, 3),
            Err(AnalysisError::BadLineWords(3))
        ));
        let g = Geometry::prime(13, 8).unwrap();
        assert_eq!(g.sets(), 8191);
        assert_eq!(g.set_of_line(8191), 0);
        assert_eq!(g.to_string(), "prime[8191 sets x 8 words]");
    }

    #[test]
    fn unit_stride_is_conflict_free_on_both() {
        let p = prog(vec![VectorAccess::single(0, 1, 4096, 0)]);
        for g in [
            Geometry::pow2(8192, 8).unwrap(),
            Geometry::prime(13, 8).unwrap(),
        ] {
            let a = analyze_program(&p, &g).unwrap();
            assert_eq!(a.verdict, Verdict::ConflictFree, "{g}");
            assert_eq!(a.distinct_lines, 512);
            assert!(!a.exceeds_capacity);
        }
    }

    #[test]
    fn pow2_resonant_stride_self_interferes_prime_does_not() {
        // Word stride 4096 = line stride 512 over 8192 sets: orbit 16.
        let p = prog(vec![VectorAccess::single(0, 4096, 8191, 0)]);
        let pow2 = analyze_program(&p, &Geometry::pow2(8192, 8).unwrap()).unwrap();
        match pow2.verdict {
            Verdict::SelfInterfering {
                orbit,
                predicted_conflict_sets,
            } => {
                assert_eq!(orbit, 16);
                assert_eq!(predicted_conflict_sets, 16);
            }
            other => panic!("expected self-interference, got {other}"),
        }
        // Eq. 8: gcd(8191, 512) = 1, so the same stride walks all 8191
        // prime sets and 8191 distinct lines fit exactly.
        let prime = analyze_program(&p, &Geometry::prime(13, 8).unwrap()).unwrap();
        assert_eq!(prime.verdict, Verdict::ConflictFree);
        assert_eq!(prime.accesses[0].orbit, Some(8191));
        assert!(!prime.exceeds_capacity);
    }

    #[test]
    fn prime_resonant_stride_self_interferes_pow2_does_not() {
        // Line stride 8191 ≡ 0 (mod 8191): every line lands in one prime
        // set; gcd(8191, 8192) = 1 keeps pow2 conflict-free.
        let p = prog(vec![VectorAccess::single(0, 8191 * 8, 64, 0)]);
        let prime = analyze_program(&p, &Geometry::prime(13, 8).unwrap()).unwrap();
        match prime.verdict {
            Verdict::SelfInterfering {
                orbit,
                predicted_conflict_sets,
            } => {
                assert_eq!(orbit, 1);
                assert_eq!(predicted_conflict_sets, 1);
            }
            other => panic!("expected self-interference, got {other}"),
        }
        let pow2 = analyze_program(&p, &Geometry::pow2(8192, 8).unwrap()).unwrap();
        assert_eq!(pow2.verdict, Verdict::ConflictFree);
    }

    #[test]
    fn cross_interference_requires_distinct_lines_of_distinct_streams() {
        let g = Geometry::pow2(64, 1).unwrap();
        // Streams 0 and 1 touch *different* lines mapping to the same set.
        let cross = prog(vec![
            VectorAccess::single(0, 1, 4, 0),
            VectorAccess::single(64, 1, 4, 1),
        ]);
        let a = analyze_program(&cross, &g).unwrap();
        assert_eq!(
            a.verdict,
            Verdict::CrossInterfering {
                predicted_conflict_sets: 4
            }
        );
        // Two streams sharing the *same* line is sharing, not conflict.
        let shared = prog(vec![
            VectorAccess::single(0, 1, 4, 0),
            VectorAccess::single(0, 1, 4, 1),
        ]);
        let a = analyze_program(&shared, &g).unwrap();
        assert_eq!(a.verdict, Verdict::ConflictFree);
    }

    #[test]
    fn self_takes_precedence_over_cross() {
        let g = Geometry::pow2(64, 1).unwrap();
        let p = prog(vec![
            VectorAccess::single(0, 64, 3, 0), // lines 0, 64, 128 -> set 0
            VectorAccess::single(1, 1, 1, 1),  // line 1 -> set 1 (harmless)
            VectorAccess::single(64, 1, 1, 1), // line 64 -> set 0 (cross too)
        ]);
        let a = analyze_program(&p, &g).unwrap();
        assert!(matches!(a.verdict, Verdict::SelfInterfering { .. }));
        assert_eq!(a.self_conflict_sets, 1);
        assert_eq!(a.cross_conflict_sets, 1);
    }

    #[test]
    fn unaligned_stride_enumerates_lines_exactly() {
        // Word stride 3 with 8-word lines: words 0,3,6,…,21 hit lines
        // 0,0,0,1,1,1,2,2 — 3 distinct lines, no orbit shortcut.
        let p = prog(vec![VectorAccess::single(0, 3, 8, 0)]);
        let a = analyze_program(&p, &Geometry::pow2(64, 8).unwrap()).unwrap();
        assert_eq!(a.accesses[0].distinct_lines, 3);
        assert_eq!(a.accesses[0].orbit, None);
        assert_eq!(a.verdict, Verdict::ConflictFree);
    }

    #[test]
    fn orbit_formula_matches_enumeration() {
        // For a spread of aligned strides, the analytic within-access
        // conflict-set count must equal the enumerated one.
        for g in [
            Geometry::pow2(64, 1).unwrap(),
            Geometry::prime(5, 1).unwrap(),
            Geometry::prime(7, 1).unwrap(),
        ] {
            for stride in [1u64, 2, 3, 5, 8, 16, 31, 32, 33, 62, 64, 127] {
                for length in [1u64, 7, 31, 64, 100, 200] {
                    let p = prog(vec![VectorAccess::single(0, stride as i64, length, 0)]);
                    let a = analyze_program(&p, &g).unwrap();
                    let acc = &a.accesses[0];
                    let (orbit, predicted) = orbit_and_conflicts(&g, stride, acc.distinct_lines);
                    assert_eq!(acc.orbit, Some(orbit), "{g} s={stride} l={length}");
                    assert_eq!(
                        acc.within_conflict_sets, predicted,
                        "{g} s={stride} l={length}"
                    );
                }
            }
        }
    }

    #[test]
    fn negative_stride_analyzes_like_positive() {
        let g = Geometry::prime(5, 1).unwrap();
        let fwd = prog(vec![VectorAccess::single(0, 31, 8, 0)]);
        let bwd = prog(vec![VectorAccess::single(31 * 7, -31, 8, 0)]);
        let a = analyze_program(&fwd, &g).unwrap();
        let b = analyze_program(&bwd, &g).unwrap();
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.distinct_lines, b.distinct_lines);
    }

    #[test]
    fn capacity_flag_and_size_guard() {
        let g = Geometry::pow2(16, 1).unwrap();
        let p = prog(vec![VectorAccess::single(0, 1, 32, 0)]);
        let a = analyze_program(&p, &g).unwrap();
        assert!(a.exceeds_capacity);
        let huge = prog(vec![VectorAccess::single(0, 1, MAX_ANALYZED_WORDS + 1, 0)]);
        assert!(matches!(
            analyze_program(&huge, &g),
            Err(AnalysisError::ProgramTooLarge { .. })
        ));
        // Lengths whose sum wraps u64 (to 0 and to 1) are still too large.
        for lengths in [[1 << 63, 1 << 63], [u64::MAX, 2]] {
            let wrapping = prog(lengths.map(|n| VectorAccess::single(0, 1, n, 0)).to_vec());
            assert_eq!(
                analyze_program(&wrapping, &g),
                Err(AnalysisError::ProgramTooLarge { words: u64::MAX })
            );
        }
    }

    #[test]
    fn verdict_serializes_with_stable_shape() {
        let v = Verdict::SelfInterfering {
            orbit: 16,
            predicted_conflict_sets: 3,
        };
        let json = serde_json::to_string(&v).unwrap();
        assert!(json.contains("SelfInterfering"), "{json}");
        assert!(json.contains("\"orbit\":16"), "{json}");
        assert_eq!(
            serde_json::to_string(&Verdict::ConflictFree).unwrap(),
            "\"ConflictFree\""
        );
    }
}
