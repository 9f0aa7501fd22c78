//! **Layer 4**: closed-form probabilistic conflict analysis for
//! non-affine workloads.
//!
//! Affine nests are decided exactly (layers 2–3); data-dependent kernels
//! — random gather, histogram scatter, sparse row-gather — admit no
//! affine lowering and were, until this layer, certified only as
//! `NonAffine { envelope }`: a bounded don't-know. Following Eijkhout,
//! Myers & McCalpin's birthday-paradox treatment of random addresses
//! into `2^k` vs prime set counts, this module computes *numbers* for
//! them: given an [`AccessProfile`] (the distribution a generator
//! samples), an access count `n`, and a [`Geometry`], it derives in
//! closed form the expected number of distinct sets touched, the
//! expected conflict-miss count, and a per-set occupancy tail bound.
//!
//! # The collision model
//!
//! Accesses are i.i.d.; access `i` touches line `ℓ` with probability
//! `q_ℓ`. For a direct-mapped set `s` write `p_s = Σ_{ℓ∈s} q_ℓ` and
//! `r_s = Σ_{ℓ∈s} q_ℓ²`. Then (all expectations over the `n` draws):
//!
//! - distinct sets touched: `D = Σ_s (1 − (1 − p_s)^n)`;
//! - hits: access `i` hits iff the most recent earlier access to its set
//!   was to the same line, so
//!   `E[hits] = Σ_s (r_s/p_s)·(n − (1 − (1 − p_s)^n)/p_s)`;
//! - compulsory (cold) misses = expected distinct *lines*:
//!   `C = Σ_ℓ (1 − (1 − q_ℓ)^n)`;
//! - conflict misses `= (n − E[hits]) − C`, exact whenever the distinct
//!   lines touched fit the cache (`n ≤ S·a` suffices): the shadow cache
//!   never evicts, so every non-compulsory miss is a conflict. Above
//!   that regime the value is an upper bound (some misses are capacity).
//!
//! Uniform profiles collapse to *occupancy classes* `(m, count)` —
//! `count` sets each holding `m` of the `L` support lines — making the
//! closed form O(#classes) = O(1) for contiguous and strided supports
//! (both mappers assign contiguous lines round-robin, and a line stride
//! `g` visits an orbit of `S / gcd(S, g mod S)` sets round-robin). That
//! is what keeps this path orders of magnitude faster than even one
//! Monte-Carlo sweep.
//!
//! # Arithmetic policy
//!
//! Small instances (`L^n` representable in 128 bits) are computed in
//! exact rational arithmetic ([`Ratio`]); published `f64` fields are the
//! nearest-float images of exact values. Larger instances fall back to
//! `f64` throughout (IEEE-754 round-to-nearest-even). The mode taken is
//! recorded in [`CollisionModel::arithmetic`] — a verdict never hides
//! how it was computed.
//!
//! # Validation
//!
//! [`run`] evaluates every non-affine worksuite row under both mappers
//! and replays `MC_SWEEPS` seeded generator instances through
//! [`CacheSim`], asserting the empirical conflict-miss mean lands within
//! `4·SE + 0.25` of the closed form. Drift is a `VC105` finding, as is a
//! family aggregate where the pow2 mapper fails to expect strictly more
//! conflicts than the prime one (the paper's headline, quantified).

use serde::Serialize;
use vcache_cache::{CacheSim, StreamId, WordAddr};
use vcache_mersenne::numtheory::{checked_pow_u128, gcd, Ratio};
use vcache_workloads::{gather_trace, spmv_gather_trace, zipf_weights, Histogram, Program};

use crate::conflict::Geometry;
use crate::lint::Finding;
use crate::suite::canonical_geometries;
use crate::worksuite::{self, Lowering};

/// Seeded Monte-Carlo sweeps per (row, geometry) during validation.
pub const MC_SWEEPS: u64 = 48;

/// Base seed for validation sweeps (sweep `s` uses `MC_SEED + s`).
pub const MC_SEED: u64 = 0xC0FF_EE00;

/// Occupancy tail bounds are stated for sets receiving at least this
/// many accesses (the birthday threshold).
pub const TAIL_THRESHOLD: u64 = 2;

/// Weighted supports larger than this are approximated by their
/// covering span instead of materialized line by line.
const MAX_WEIGHTED_SUPPORT: u64 = 1 << 20;

/// The address distribution a non-affine generator samples — the
/// analyzable abstraction of its RNG. One profile, two consumers: the
/// closed form models it and [`AccessProfile::sample_trace`] replays the
/// *actual generator* for Monte-Carlo validation, so the model and the
/// simulation can never drift apart silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AccessProfile {
    /// Uniform word addresses in `[base, base + span)` — `gather_trace`.
    UniformSpan {
        /// First word of the window.
        base: u64,
        /// Window length in words.
        span: u64,
    },
    /// Uniform over `count` points `base + i·stride` — `spmv_gather_trace`
    /// (`stride` = row words, `count` = rows).
    UniformStrided {
        /// First support point.
        base: u64,
        /// Distance between support points, in words.
        stride: u64,
        /// Number of support points.
        count: u64,
    },
    /// Harmonic-skew scatter over `bins` bin heads `base + b·bin_words`,
    /// bin `b` weighted by `zipf_weights` — `histogram_trace`.
    Zipf {
        /// First word of the bin table.
        base: u64,
        /// Number of bins.
        bins: u64,
        /// Words per bin.
        bin_words: u64,
    },
}

impl AccessProfile {
    /// Samples one seeded trace of `n` accesses from the *generator*
    /// this profile abstracts (not a re-implementation — the very
    /// functions the worksuite certifies).
    ///
    /// # Panics
    ///
    /// Panics on degenerate profiles (zero span, stride, rows, or bin
    /// width), mirroring the generators' own contracts.
    #[must_use]
    pub fn sample_trace(&self, n: u64, seed: u64) -> Program {
        self.sampler().trace(n, seed)
    }

    /// The generator this profile abstracts, with any table it draws
    /// from built once.
    fn sampler(&self) -> Sampler {
        match *self {
            Self::UniformSpan { base, span } => Sampler::Gather { base, span },
            Self::UniformStrided {
                base,
                stride,
                count,
            } => Sampler::SpmvGather {
                base,
                rows: count,
                row_words: stride,
            },
            Self::Zipf {
                base,
                bins,
                bin_words,
            } => Sampler::Histogram(Histogram::new(base, bins, bin_words)),
        }
    }
}

/// A profile's generator, ready to draw seeded traces: a Monte-Carlo
/// row builds it once for all its sweeps.
enum Sampler {
    Gather {
        base: u64,
        span: u64,
    },
    SpmvGather {
        base: u64,
        rows: u64,
        row_words: u64,
    },
    Histogram(Histogram),
}

impl Sampler {
    fn trace(&self, n: u64, seed: u64) -> Program {
        match *self {
            Self::Gather { base, span } => gather_trace(base, span, n, seed),
            Self::SpmvGather {
                base,
                rows,
                row_words,
            } => spmv_gather_trace(base, rows, row_words, n, seed),
            Self::Histogram(ref histogram) => histogram.trace(n, seed),
        }
    }
}

/// Which arithmetic produced a verdict's numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Arithmetic {
    /// Exact 128-bit rationals end to end; published floats are the
    /// nearest-`f64` images of exact values.
    ExactRational,
    /// `f64` throughout (IEEE-754 round-to-nearest-even), taken above
    /// the exact-path size threshold (`L^n` beyond 128 bits).
    FloatNearestEven,
}

/// The full model behind an [`ProbVerdict::ExpectedConflicts`] verdict —
/// enough to audit or recompute every published number.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CollisionModel {
    /// Distribution family (`uniform-span`, `uniform-strided`, `zipf`).
    pub distribution: &'static str,
    /// Distinct cache lines in the support.
    pub support_lines: u64,
    /// Sets holding at least one support line.
    pub occupied_sets: u64,
    /// Accesses drawn (`n`).
    pub accesses: u64,
    /// Sets in the geometry (`S`).
    pub sets: u64,
    /// Ways per set (the model currently covers direct-mapped caches).
    pub associativity: u64,
    /// Words per line.
    pub line_words: u64,
    /// Expected total misses `n − E[hits]`.
    pub expected_total_misses: f64,
    /// Expected compulsory (cold) misses = expected distinct lines.
    pub expected_compulsory_misses: f64,
    /// Occupancy bound threshold: the tail bound is on sets receiving at
    /// least this many accesses.
    pub tail_threshold: u64,
    /// Arithmetic mode the numbers were computed in.
    pub arithmetic: Arithmetic,
}

/// A probabilistic verdict: the quantitative answer for workloads the
/// affine layers cannot decide.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ProbVerdict {
    /// Closed-form collision statistics for a non-affine access stream.
    ExpectedConflicts {
        /// Expected conflict-miss count over the `n` accesses.
        expected_misses: f64,
        /// Expected number of distinct sets touched.
        distinct_sets: f64,
        /// Union (birthday) bound on the probability that any single set
        /// receives ≥ `tail_threshold` accesses: `min(1, C(n,2)·Σ_s p_s²)`.
        bound: f64,
        /// The model that produced the numbers.
        model: CollisionModel,
    },
}

impl ProbVerdict {
    /// Expected conflict misses (the headline number).
    #[must_use]
    pub fn expected_misses(&self) -> f64 {
        match self {
            Self::ExpectedConflicts {
                expected_misses, ..
            } => *expected_misses,
        }
    }

    /// Expected distinct sets touched.
    #[must_use]
    pub fn distinct_sets(&self) -> f64 {
        match self {
            Self::ExpectedConflicts { distinct_sets, .. } => *distinct_sets,
        }
    }

    /// The occupancy tail bound.
    #[must_use]
    pub fn bound(&self) -> f64 {
        match self {
            Self::ExpectedConflicts { bound, .. } => *bound,
        }
    }

    /// The underlying model.
    #[must_use]
    pub fn model(&self) -> &CollisionModel {
        match self {
            Self::ExpectedConflicts { model, .. } => model,
        }
    }
}

/// Exact rational collision statistics, for uniform supports small
/// enough that `L^n` fits 128 bits. The regression suite pins these
/// against brute-force probability enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactStats {
    /// Expected distinct sets touched.
    pub distinct_sets: Ratio,
    /// Expected total misses.
    pub total_misses: Ratio,
    /// Expected compulsory misses.
    pub compulsory_misses: Ratio,
    /// Expected conflict misses.
    pub conflict_misses: Ratio,
}

/// One seeded Monte-Carlo validation summary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MonteCarlo {
    /// Number of seeded sweeps replayed.
    pub sweeps: u64,
    /// Mean empirical conflict-miss count across sweeps.
    pub empirical_mean: f64,
    /// Standard error of that mean.
    pub std_err: f64,
}

/// One evaluated (workload, geometry) row of the probabilistic section.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProbabilisticRow {
    /// Worksuite case name.
    pub workload: String,
    /// Geometry tag (`pow2` / `prime`).
    pub geometry: &'static str,
    /// The closed-form verdict.
    pub verdict: ProbVerdict,
    /// The seeded Monte-Carlo validation it was checked against.
    pub monte_carlo: MonteCarlo,
    /// Accepted |closed form − empirical mean| (`4·SE + 0.25`).
    pub tolerance: f64,
    /// Actual |closed form − empirical mean|.
    pub drift: f64,
    /// Row validated: drift within tolerance.
    pub ok: bool,
}

/// Plain-float statistics shared by the exact and float paths.
struct Stats {
    distinct_sets: f64,
    total_misses: f64,
    compulsory: f64,
    conflicts: f64,
}

/// Occupancy classes `(lines_per_set, set_count)` for `lines` distinct
/// lines assigned round-robin over a cycle of `cycle` sets — both
/// mappers do exactly this for contiguous lines (`cycle = S`) and for a
/// line stride `g` (`cycle = S / gcd(S, g mod S)`).
fn round_robin_classes(lines: u64, cycle: u64) -> Vec<(u64, u64)> {
    assert!(lines > 0 && cycle > 0, "empty support has no classes");
    if lines <= cycle {
        return vec![(1, lines)];
    }
    let q = lines / cycle;
    let r = lines % cycle;
    if r == 0 {
        vec![(q, cycle)]
    } else {
        vec![(q + 1, r), (q, cycle - r)]
    }
}

/// Exact rational statistics for a uniform support described by
/// occupancy classes. Returns `None` above the size threshold (`L^n`
/// or an intermediate beyond 128 bits), in which case the caller falls
/// back to floats.
#[must_use]
pub fn exact_uniform_stats(classes: &[(u64, u64)], n: u32) -> Option<ExactStats> {
    let support: u64 = classes.iter().map(|&(m, count)| m * count).sum();
    if support == 0 {
        return None;
    }
    let l = u128::from(support);
    // Size threshold: every denominator below divides m·L^n.
    checked_pow_u128(l, n)?;
    let n_exact = Ratio::from_int(u128::from(n));
    let one = Ratio::from_int(1);
    let mut distinct_sets = Ratio::from_int(0);
    let mut hits = Ratio::from_int(0);
    for &(m, count) in classes {
        if m == 0 || count == 0 {
            continue;
        }
        let count_exact = Ratio::from_int(u128::from(count));
        // 1 − ((L−m)/L)^n, the probability this set is touched.
        let touched = one.checked_sub(Ratio::new(l - u128::from(m), l)?.pow(n)?)?;
        distinct_sets = distinct_sets.checked_add(count_exact.checked_mul(touched)?)?;
        // Per-set hits (1/L)·(n − L·touched/m), summed over the class.
        let inner = n_exact.checked_sub(touched.checked_mul(Ratio::new(l, u128::from(m))?)?)?;
        hits = hits.checked_add(count_exact.checked_mul(Ratio::new(1, l)?.checked_mul(inner)?)?)?;
    }
    // Compulsory = L·(1 − ((L−1)/L)^n): expected distinct lines.
    let compulsory_misses =
        Ratio::from_int(l).checked_mul(one.checked_sub(Ratio::new(l - 1, l)?.pow(n)?)?)?;
    let total_misses = n_exact.checked_sub(hits)?;
    // Non-negative by construction (hits only count previously-seen
    // lines); an exact subtraction cannot observe rounding artifacts.
    let conflict_misses = total_misses.checked_sub(compulsory_misses)?;
    Some(ExactStats {
        distinct_sets,
        total_misses,
        compulsory_misses,
        conflict_misses,
    })
}

/// Float statistics for a uniform support described by occupancy
/// classes.
fn float_uniform_stats(classes: &[(u64, u64)], support: u64, n: u64) -> Stats {
    let nf = n as f64;
    let lf = support as f64;
    let mut distinct_sets = 0.0;
    let mut hits = 0.0;
    for &(m, count) in classes {
        if m == 0 || count == 0 {
            continue;
        }
        let touched = 1.0 - ((lf - m as f64) / lf).powf(nf);
        distinct_sets += count as f64 * touched;
        hits += count as f64 * (nf - lf * touched / m as f64) / lf;
    }
    let compulsory = lf * (1.0 - ((lf - 1.0) / lf).powf(nf));
    let total_misses = nf - hits;
    Stats {
        distinct_sets,
        total_misses,
        compulsory,
        conflicts: (total_misses - compulsory).max(0.0),
    }
}

/// Union (birthday) bound on any set receiving ≥ 2 accesses:
/// `min(1, C(n,2)·Σ_s p_s²)`.
fn tail_bound(sum_p_squared: f64, n: u64) -> f64 {
    let nf = n as f64;
    (nf * (nf - 1.0) / 2.0 * sum_p_squared).min(1.0)
}

/// Assembles the verdict for a uniform support, preferring the exact
/// rational path and recording the fallback when it is taken.
fn uniform_verdict(
    distribution: &'static str,
    classes: &[(u64, u64)],
    n: u64,
    geometry: &Geometry,
) -> ProbVerdict {
    let support: u64 = classes.iter().map(|&(m, count)| m * count).sum();
    let exact = u32::try_from(n)
        .ok()
        .and_then(|n32| exact_uniform_stats(classes, n32));
    let (stats, arithmetic) = match exact {
        Some(e) => (
            Stats {
                distinct_sets: e.distinct_sets.to_f64(),
                total_misses: e.total_misses.to_f64(),
                compulsory: e.compulsory_misses.to_f64(),
                conflicts: e.conflict_misses.to_f64(),
            },
            Arithmetic::ExactRational,
        ),
        None => (
            float_uniform_stats(classes, support, n),
            Arithmetic::FloatNearestEven,
        ),
    };
    let lf = support as f64;
    let sum_p_squared: f64 = classes
        .iter()
        .map(|&(m, count)| count as f64 * (m as f64 / lf) * (m as f64 / lf))
        .sum();
    let occupied_sets: u64 = classes
        .iter()
        .filter(|&&(m, _)| m > 0)
        .map(|&(_, count)| count)
        .sum();
    ProbVerdict::ExpectedConflicts {
        expected_misses: stats.conflicts,
        distinct_sets: stats.distinct_sets,
        bound: tail_bound(sum_p_squared, n),
        model: CollisionModel {
            distribution,
            support_lines: support,
            occupied_sets,
            accesses: n,
            sets: geometry.sets(),
            associativity: 1,
            line_words: geometry.line_words(),
            expected_total_misses: stats.total_misses,
            expected_compulsory_misses: stats.compulsory,
            tail_threshold: TAIL_THRESHOLD,
            arithmetic,
        },
    }
}

/// Per-line weights of support points listed in nondecreasing line
/// order: a repeated line adds its weight to the entry it already has.
fn line_weights(points: impl Iterator<Item = (u64, u64)>) -> Vec<(u64, u64)> {
    let mut weights: Vec<(u64, u64)> = Vec::new();
    for (line, w) in points {
        match weights.last_mut() {
            Some((last, sum)) if *last == line => *sum += w,
            last => {
                debug_assert!(last.is_none_or(|(l, _)| *l < line), "lines out of order");
                weights.push((line, w));
            }
        }
    }
    weights
}

/// Assembles the verdict for per-line weights, one entry per line in
/// ascending line order (float path only — weighted supports have no
/// occupancy-class shortcut).
fn weighted_verdict(
    distribution: &'static str,
    weights: &[(u64, u64)],
    n: u64,
    geometry: &Geometry,
) -> ProbVerdict {
    let total: u128 = weights.iter().map(|&(_, w)| u128::from(w)).sum();
    assert!(total > 0, "weighted support must carry positive mass");
    let total_f = total as f64;
    let nf = n as f64;
    let mut compulsory = 0.0;
    for &(_, w) in weights {
        let q = w as f64 / total_f;
        compulsory += 1.0 - (1.0 - q).powf(nf);
    }
    // Per-set first and second weight moments, summed in ascending set
    // order. The moments are exact integers, so the order in which a
    // set's lines are added does not matter.
    let mut by_set: Vec<(u64, u64)> = weights
        .iter()
        .map(|&(line, w)| (geometry.set_of_line(line), w))
        .collect();
    by_set.sort_unstable_by_key(|&(set, _)| set);
    let mut distinct_sets = 0.0;
    let mut hits = 0.0;
    let mut sum_p_squared = 0.0;
    let mut occupied_sets = 0u64;
    for set in by_set.chunk_by(|a, b| a.0 == b.0) {
        let sw: u128 = set.iter().map(|&(_, w)| u128::from(w)).sum();
        let sw2: u128 = set
            .iter()
            .map(|&(_, w)| u128::from(w) * u128::from(w))
            .sum();
        let p = sw as f64 / total_f;
        let r = sw2 as f64 / (total_f * total_f);
        let touched = 1.0 - (1.0 - p).powf(nf);
        distinct_sets += touched;
        hits += (r / p) * (nf - touched / p);
        sum_p_squared += p * p;
        occupied_sets += 1;
    }
    let total_misses = nf - hits;
    let support_lines = u64::try_from(weights.len()).unwrap_or(u64::MAX);
    ProbVerdict::ExpectedConflicts {
        expected_misses: (total_misses - compulsory).max(0.0),
        distinct_sets,
        bound: tail_bound(sum_p_squared, n),
        model: CollisionModel {
            distribution,
            support_lines,
            occupied_sets,
            accesses: n,
            sets: geometry.sets(),
            associativity: 1,
            line_words: geometry.line_words(),
            expected_total_misses: total_misses,
            expected_compulsory_misses: compulsory,
            tail_threshold: TAIL_THRESHOLD,
            arithmetic: Arithmetic::FloatNearestEven,
        },
    }
}

/// Closed-form collision analysis of `n` accesses drawn from `profile`
/// under `geometry`. Total: every profile gets a verdict (degenerate
/// parameters are clamped to their smallest meaningful value, and
/// oversized weighted supports are approximated by their covering span).
#[must_use]
pub fn analyze_profile(profile: &AccessProfile, n: u64, geometry: &Geometry) -> ProbVerdict {
    let lw = geometry.line_words();
    let sets = geometry.sets();
    match *profile {
        AccessProfile::UniformSpan { base, span } => {
            let span = span.max(1);
            // Covered line range; for line-unaligned windows the ≤ 1
            // boundary line on each side carries slightly less mass than
            // modeled — negligible against span/lw lines.
            let lines = (base + span - 1) / lw - base / lw + 1;
            let classes = round_robin_classes(lines, sets);
            uniform_verdict("uniform-span", &classes, n, geometry)
        }
        AccessProfile::UniformStrided {
            base,
            stride,
            count,
        } => {
            let stride = stride.max(1);
            let count = count.max(1);
            if base % lw == 0 && stride % lw == 0 {
                // Every support point is its own line; line stride g
                // visits an orbit of S/gcd(S, g mod S) sets round-robin.
                let g = stride / lw;
                let d = g % sets;
                let classes = if d == 0 {
                    vec![(count, 1)]
                } else {
                    round_robin_classes(count, sets / gcd(sets, d))
                };
                uniform_verdict("uniform-strided", &classes, n, geometry)
            } else if count <= MAX_WEIGHTED_SUPPORT {
                // Unaligned: points may share lines — materialize the
                // per-line weights.
                let weights = line_weights((0..count).map(|i| ((base + i * stride) / lw, 1)));
                weighted_verdict("uniform-strided", &weights, n, geometry)
            } else {
                // Oversized unaligned support: covering-span
                // approximation, honestly labelled.
                let lines = (base + (count - 1) * stride) / lw - base / lw + 1;
                let classes = round_robin_classes(lines, sets);
                uniform_verdict("uniform-strided-coarse", &classes, n, geometry)
            }
        }
        AccessProfile::Zipf {
            base,
            bins,
            bin_words,
        } => {
            let bins = bins.clamp(1, MAX_WEIGHTED_SUPPORT - 1);
            let bin_words = bin_words.max(1);
            let weights = line_weights(
                (0..bins)
                    .zip(zipf_weights(bins))
                    .map(|(b, w)| ((base + b * bin_words) / lw, w)),
            );
            weighted_verdict("zipf", &weights, n, geometry)
        }
    }
}

/// Replays `sweeps` seeded generator traces of `n` accesses through
/// [`CacheSim`] under `geometry` and summarizes the empirical
/// conflict-miss distribution. `None` only on an unbuildable simulator
/// configuration or fewer than two sweeps (no standard error exists).
#[must_use]
pub fn monte_carlo(
    profile: &AccessProfile,
    n: u64,
    geometry: &Geometry,
    sweeps: u64,
    seed: u64,
) -> Option<MonteCarlo> {
    if sweeps < 2 {
        return None;
    }
    let mut sim = match geometry {
        Geometry::Pow2 { sets, line_words } => CacheSim::direct_mapped(*sets, *line_words).ok()?,
        Geometry::Prime {
            modulus,
            line_words,
        } => CacheSim::prime_mapped(modulus.exponent(), *line_words).ok()?,
    };
    let sampler = profile.sampler();
    let mut samples = Vec::new();
    for s in 0..sweeps {
        let trace = sampler.trace(n, seed.wrapping_add(s));
        sim.reset();
        for (word, stream) in trace.words() {
            sim.access(WordAddr::new(word), StreamId::new(stream));
        }
        samples.push(sim.stats().conflict_misses() as f64);
    }
    let k = samples.len() as f64;
    let empirical_mean = samples.iter().sum::<f64>() / k;
    let variance = samples
        .iter()
        .map(|x| (x - empirical_mean) * (x - empirical_mean))
        .sum::<f64>()
        / (k - 1.0);
    Some(MonteCarlo {
        sweeps,
        empirical_mean,
        std_err: (variance / k).sqrt(),
    })
}

/// The pinned validation tolerance: four standard errors plus a quarter
/// of a miss of absolute slack (covers exact-zero rows, where the
/// empirical variance can vanish).
#[must_use]
pub fn validation_tolerance(mc: &MonteCarlo) -> f64 {
    4.0 * mc.std_err + 0.25
}

/// Runs the probabilistic section: every non-affine worksuite row,
/// both geometries, closed form + seeded Monte-Carlo validation.
///
/// Findings:
/// - `VC009` — a `NonAffine` row carries no [`AccessProfile`] (a silent
///   envelope-only row);
/// - `VC105` — Monte-Carlo drift beyond [`validation_tolerance`], or a
///   family aggregate where pow2 does not expect strictly more
///   conflict misses than prime.
///
/// # Panics
///
/// Panics only if a canonical geometry or Monte-Carlo configuration is
/// invalid, which would be a programming error in this module.
#[must_use]
pub fn run() -> (Vec<ProbabilisticRow>, Vec<Finding>) {
    let mut rows = Vec::new();
    let mut findings = Vec::new();
    let mut pow2_total = 0.0;
    let mut prime_total = 0.0;
    for case in worksuite::cases() {
        let Lowering::NonAffine { profile, .. } = &case.lowering else {
            continue;
        };
        let Some(profile) = profile else {
            findings.push(Finding::gate(
                "VC009",
                &format!("worksuite:{}", case.name),
                format!(
                    "non-affine workload `{}` carries no access profile: envelope-only \
                     rows get no probabilistic verdict",
                    case.name
                ),
            ));
            continue;
        };
        let n = u64::try_from(case.trace.words().count()).unwrap_or(u64::MAX);
        for geometry in canonical_geometries(case.line_words) {
            let verdict = analyze_profile(profile, n, &geometry);
            let Some(mc) = monte_carlo(profile, n, &geometry, MC_SWEEPS, MC_SEED) else {
                unreachable!("canonical Monte-Carlo configuration invalid")
            };
            let tolerance = validation_tolerance(&mc);
            let drift = (verdict.expected_misses() - mc.empirical_mean).abs();
            let ok = drift <= tolerance;
            if !ok {
                findings.push(Finding::gate(
                    "VC105",
                    &format!("worksuite:{}", case.name),
                    format!(
                        "closed form drifts from Monte-Carlo under {}: expected {:.3} \
                         conflict misses, {} sweeps measured {:.3} ± {:.3} (tolerance {:.3})",
                        geometry.kind(),
                        verdict.expected_misses(),
                        mc.sweeps,
                        mc.empirical_mean,
                        mc.std_err,
                        tolerance
                    ),
                ));
            }
            match geometry.kind() {
                "pow2" => pow2_total += verdict.expected_misses(),
                _ => prime_total += verdict.expected_misses(),
            }
            rows.push(ProbabilisticRow {
                workload: case.name.into(),
                geometry: geometry.kind(),
                verdict,
                monte_carlo: mc,
                tolerance,
                drift,
                ok,
            });
        }
    }
    // The paper's headline, quantified on the last uncovered workload
    // class: across the non-affine family the pow2 mapper must expect
    // strictly more conflict misses than the Mersenne-prime one.
    if !rows.is_empty() && pow2_total <= prime_total {
        findings.push(Finding::gate(
            "VC105",
            "worksuite:non-affine-family",
            format!(
                "prime advantage lost on the non-affine family: pow2 expects {pow2_total:.3} \
                 conflict misses, prime {prime_total:.3}"
            ),
        ));
    }
    (rows, findings)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn pow2_geometry() -> Geometry {
        Geometry::pow2(8192, 8).unwrap()
    }

    fn prime_geometry() -> Geometry {
        Geometry::prime(13, 8).unwrap()
    }

    #[test]
    fn round_robin_classes_cover_the_support() {
        assert_eq!(round_robin_classes(5, 8), vec![(1, 5)]);
        assert_eq!(round_robin_classes(16, 8), vec![(2, 8)]);
        assert_eq!(round_robin_classes(19, 8), vec![(3, 3), (2, 5)]);
        for (lines, cycle) in [(1, 1), (7, 3), (8192, 8191), (16384, 8192)] {
            let classes = round_robin_classes(lines, cycle);
            let total: u64 = classes.iter().map(|&(m, c)| m * c).sum();
            let sets: u64 = classes.iter().map(|&(_, c)| c).sum();
            assert_eq!(total, lines);
            assert!(sets <= cycle);
        }
    }

    #[test]
    fn single_line_sets_take_no_conflict_misses() {
        // Support of 512 lines into 8192 sets: every set holds at most
        // one line, so a re-touched set always re-touches its line.
        let verdict = analyze_profile(
            &AccessProfile::UniformSpan {
                base: 0,
                span: 4096,
            },
            256,
            &pow2_geometry(),
        );
        assert!(verdict.expected_misses().abs() < 1e-9, "{verdict:?}");
        let model = verdict.model();
        assert_eq!(model.support_lines, 512);
        assert_eq!(model.occupied_sets, 512);
        // All misses are compulsory.
        assert!(
            (model.expected_total_misses - model.expected_compulsory_misses).abs() < 1e-9,
            "{model:?}"
        );
    }

    #[test]
    fn exact_path_engages_at_small_sizes_and_matches_floats() {
        let classes = [(2u64, 3u64), (1, 2)];
        let exact = exact_uniform_stats(&classes, 6).unwrap();
        let float = float_uniform_stats(&classes, 8, 6);
        assert!((exact.distinct_sets.to_f64() - float.distinct_sets).abs() < 1e-9);
        assert!((exact.total_misses.to_f64() - float.total_misses).abs() < 1e-9);
        assert!((exact.conflict_misses.to_f64() - float.conflicts).abs() < 1e-9);
    }

    #[test]
    fn exact_path_declines_oversized_instances() {
        // 512^256 needs 2304 bits: the threshold must route this to the
        // float path rather than silently overflowing.
        assert!(exact_uniform_stats(&[(1, 512)], 256).is_none());
    }

    #[test]
    fn strided_support_folds_under_pow2_and_spreads_under_prime() {
        let profile = AccessProfile::UniformStrided {
            base: 0,
            stride: 4096,
            count: 64,
        };
        let pow2 = analyze_profile(&profile, 256, &pow2_geometry());
        let prime = analyze_profile(&profile, 256, &prime_geometry());
        // Line stride 512 into 8192 sets: orbit 16, heavy folding.
        assert_eq!(pow2.model().occupied_sets, 16);
        assert!(pow2.expected_misses() > 100.0, "{pow2:?}");
        // 512 is coprime to 8191: all 64 rows land in distinct sets.
        assert_eq!(prime.model().occupied_sets, 64);
        assert!(prime.expected_misses().abs() < 1e-9, "{prime:?}");
    }

    #[test]
    fn zipf_model_matches_its_generator_support() {
        let profile = AccessProfile::Zipf {
            base: 0,
            bins: 256,
            bin_words: 8,
        };
        let verdict = analyze_profile(&profile, 512, &pow2_geometry());
        let model = verdict.model();
        assert_eq!(model.distribution, "zipf");
        // One bin per line at bin_words = line_words.
        assert_eq!(model.support_lines, 256);
        assert!(verdict.distinct_sets() > 0.0 && verdict.distinct_sets() <= 256.0);
        assert!(verdict.bound() > 0.0 && verdict.bound() <= 1.0);
    }

    /// The ordered-map evaluation the sorted weights replaced: per-line
    /// weights, then per-set moments, each in a `BTreeMap`.
    fn btree_reference(profile: &AccessProfile, n: u64, geometry: &Geometry) -> ProbVerdict {
        let lw = geometry.line_words();
        let mut weight_by_line: BTreeMap<u64, u64> = BTreeMap::new();
        match *profile {
            AccessProfile::UniformStrided {
                base,
                stride,
                count,
            } => {
                for i in 0..count {
                    *weight_by_line.entry((base + i * stride) / lw).or_insert(0) += 1;
                }
            }
            AccessProfile::Zipf {
                base,
                bins,
                bin_words,
            } => {
                for (b, w) in (0..bins).zip(zipf_weights(bins)) {
                    *weight_by_line
                        .entry((base + b * bin_words) / lw)
                        .or_insert(0) += w;
                }
            }
            AccessProfile::UniformSpan { .. } => unreachable!("uniform spans are not weighted"),
        }
        let total: u128 = weight_by_line.values().map(|&w| u128::from(w)).sum();
        let total_f = total as f64;
        let nf = n as f64;
        let mut by_set: BTreeMap<u64, (u128, u128)> = BTreeMap::new();
        let mut compulsory = 0.0;
        for (&line, &w) in &weight_by_line {
            let entry = by_set.entry(geometry.set_of_line(line)).or_insert((0, 0));
            entry.0 += u128::from(w);
            entry.1 += u128::from(w) * u128::from(w);
            compulsory += 1.0 - (1.0 - w as f64 / total_f).powf(nf);
        }
        let (mut distinct_sets, mut hits, mut sum_p_squared) = (0.0, 0.0, 0.0);
        for &(sw, sw2) in by_set.values() {
            let p = sw as f64 / total_f;
            let r = sw2 as f64 / (total_f * total_f);
            let touched = 1.0 - (1.0 - p).powf(nf);
            distinct_sets += touched;
            hits += (r / p) * (nf - touched / p);
            sum_p_squared += p * p;
        }
        let total_misses = nf - hits;
        let distribution = match profile {
            AccessProfile::Zipf { .. } => "zipf",
            _ => "uniform-strided",
        };
        ProbVerdict::ExpectedConflicts {
            expected_misses: (total_misses - compulsory).max(0.0),
            distinct_sets,
            bound: tail_bound(sum_p_squared, n),
            model: CollisionModel {
                distribution,
                support_lines: weight_by_line.len() as u64,
                occupied_sets: by_set.len() as u64,
                accesses: n,
                sets: geometry.sets(),
                associativity: 1,
                line_words: lw,
                expected_total_misses: total_misses,
                expected_compulsory_misses: compulsory,
                tail_threshold: TAIL_THRESHOLD,
                arithmetic: Arithmetic::FloatNearestEven,
            },
        }
    }

    /// Every published float of a verdict, as bits.
    fn float_bits(verdict: &ProbVerdict) -> [u64; 5] {
        let model = verdict.model();
        [
            verdict.expected_misses().to_bits(),
            verdict.distinct_sets().to_bits(),
            verdict.bound().to_bits(),
            model.expected_total_misses.to_bits(),
            model.expected_compulsory_misses.to_bits(),
        ]
    }

    #[test]
    fn sorted_weights_equal_the_ordered_map_reference_bit_for_bit() {
        let profiles = [
            // Unaligned strides whose points share lines: five points
            // per 8-word line, and two per line at stride 3.
            AccessProfile::UniformStrided {
                base: 3,
                stride: 5,
                count: 20_000,
            },
            AccessProfile::UniformStrided {
                base: 1,
                stride: 3,
                count: 9_000,
            },
            // Unaligned and wider than a line: one point per line, the
            // lines folding onto few pow2 sets.
            AccessProfile::UniformStrided {
                base: 1,
                stride: 4100,
                count: 300,
            },
            // Zipf bins narrower than a line: several bins per line.
            AccessProfile::Zipf {
                base: 5,
                bins: 16_384,
                bin_words: 3,
            },
            AccessProfile::Zipf {
                base: 0,
                bins: 1000,
                bin_words: 1,
            },
            // The worksuite's row: one bin per line.
            AccessProfile::Zipf {
                base: 0,
                bins: 16_384,
                bin_words: 8,
            },
        ];
        let geometries = [
            pow2_geometry(),
            prime_geometry(),
            Geometry::pow2(64, 4).unwrap(),
        ];
        for profile in &profiles {
            for geometry in &geometries {
                for n in [512, 1 << 16] {
                    let verdict = analyze_profile(profile, n, geometry);
                    let reference = btree_reference(profile, n, geometry);
                    assert_eq!(verdict, reference, "{profile:?} {geometry} n={n}");
                    assert_eq!(
                        float_bits(&verdict),
                        float_bits(&reference),
                        "{profile:?} {geometry} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn monte_carlo_is_seeded_and_deterministic() {
        let profile = AccessProfile::UniformSpan {
            base: 0,
            span: 4096,
        };
        let a = monte_carlo(&profile, 128, &pow2_geometry(), 8, 1).unwrap();
        let b = monte_carlo(&profile, 128, &pow2_geometry(), 8, 1).unwrap();
        assert_eq!(a, b);
        assert!(monte_carlo(&profile, 128, &pow2_geometry(), 1, 1).is_none());
    }

    #[test]
    fn probabilistic_section_is_green_and_shows_prime_advantage() {
        let (rows, findings) = run();
        assert!(findings.is_empty(), "{findings:?}");
        // Two geometries per non-affine worksuite case, none silent.
        assert!(rows.len() >= 8, "only {} rows", rows.len());
        assert!(rows.iter().all(|r| r.ok), "{rows:?}");
        let total = |kind: &str| -> f64 {
            rows.iter()
                .filter(|r| r.geometry == kind)
                .map(|r| r.verdict.expected_misses())
                .sum()
        };
        // The acceptance headline: pow2/prime expected-miss ratio > 1.
        assert!(total("pow2") > total("prime"), "{rows:?}");
    }
}
