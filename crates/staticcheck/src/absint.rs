//! Layer 3: abstract interpretation of affine loop nests over a
//! congruence × interval product domain.
//!
//! Each [`AffineRef`] of a [`LoopNest`] is abstracted to a [`LineSet`] —
//! a sound description of the cache lines it touches: the interval
//! `[first, last]`, the congruence `line ≡ first (mod step)`, and a
//! [`Shape`] recording how much structure survived abstraction. Shapes
//! are ordered by precision:
//!
//! * [`Shape::Point`] / [`Shape::Progression`] / [`Shape::SegmentGrid`] —
//!   the line set is known **exactly** (a single line, an arithmetic
//!   progression, or equally spaced runs of consecutive lines, the §4
//!   sub-block picture);
//! * [`Shape::Lattice`] — only the interval and congruence hold (the
//!   footprint is a subset of the described lattice).
//!
//! Line sets bound the footprint for the capacity classification and
//! drive the enumeration fallback. Conflict freedom itself is decided
//! per *component* — each reference against itself, each reference
//! pair — by one procedure, the relational domain
//! ([`crate::relational`]): both mappers reduce a line modulo the set
//! count `S`, so two lines share a set iff their difference is a nonzero
//! multiple of `S`.
//!
//! * **BoundedOffset** — the component's achievable line differences lie
//!   in an interval holding no nonzero multiple of `S`; tried first on
//!   the two references' whole line intervals (the window test), then
//!   per congruence class.
//! * **CosetSeparated** — congruence-class splitting turns each
//!   reference into exact carry-free sub-lattices, and coset separation,
//!   CRT and the exact solvers decide whether a nonzero multiple of `S`
//!   is achievable — with a concrete witness when it is. The paper's
//!   Eq. 8 orbit bound and the §4 sub-block condition are special cases.
//! * **Enumerated** — exact fallback for a component the domain hands
//!   back (each carries a machine-readable [`FallbackReason`]), bounded
//!   by [`MAX_NEST_WORDS`] total work; exceeding the bound is an error,
//!   not a silent approximation.
//!
//! Because every step is exact, the final verdict is *exact*, not merely
//! sound: `ConflictFree` ⇔ zero conflict misses in a double-sweep
//! replay, within cache capacity. The differential tests in
//! `tests/nests.rs` hold this against the simulator for hundreds of
//! random nests, and the fallback stays a dormant safety net: the
//! canonical suites and the seeded random battery all decide with
//! `enumerated_lines == 0`.

use std::collections::BTreeMap;
use std::fmt;

use serde::Serialize;
use vcache_mersenne::numtheory::gcd;

use crate::conflict::{Geometry, MAX_ANALYZED_WORDS};
use crate::nest::{AffineRef, LoopNest};
use crate::relational::{self, RelOutcome};

/// Total enumeration budget (in lines/words materialized) for one nest
/// analysis; symbolic decisions are unaffected by this bound.
pub const MAX_NEST_WORDS: u64 = MAX_ANALYZED_WORDS;

/// How many enumeration steps may pass between two polls of a
/// [`NestBudget`] cancellation callback. A cancelled analysis (e.g. a
/// request past its deadline in `vcache serve`) is abandoned within one
/// quantum of enumeration, never at the end of the full walk.
pub const BUDGET_CHECK_QUANTUM: u64 = 4096;

/// Resource limits for one nest analysis: the enumeration word cap plus
/// an optional cooperative-cancellation callback, polled once per
/// component before its symbolic decision and at least every
/// [`BUDGET_CHECK_QUANTUM`] enumeration steps. A symbolic decision is
/// never cancelled midway, so a fired budget is observed within one
/// component decision or one enumeration quantum.
pub struct NestBudget<'a> {
    /// Enumeration cap in materialized lines/words (defaults to
    /// [`MAX_NEST_WORDS`]).
    pub max_words: u64,
    /// Returns `true` once the analysis should be abandoned (e.g. a
    /// deadline passed). `None` never cancels.
    pub cancelled: Option<&'a (dyn Fn() -> bool + 'a)>,
    /// Phase observer: called as `(phase, true)` when an analysis phase
    /// opens and `(phase, false)` when it closes. Phases are `lineset`,
    /// `rules`, and `enumerate`; an `Err` return (cancellation, budget
    /// exhaustion) still closes the open phase before propagating, so
    /// begin/end calls always balance. `None` observes nothing and the
    /// analysis runs the identical code path.
    pub observer: Option<&'a (dyn Fn(&'static str, bool) + 'a)>,
}

impl Default for NestBudget<'_> {
    fn default() -> Self {
        Self {
            max_words: MAX_NEST_WORDS,
            cancelled: None,
            observer: None,
        }
    }
}

impl<'a> NestBudget<'a> {
    /// A budget with the default word cap and the given cancellation
    /// callback.
    #[must_use]
    pub fn with_cancel(cancelled: &'a (dyn Fn() -> bool + 'a)) -> Self {
        Self {
            cancelled: Some(cancelled),
            ..Self::default()
        }
    }

    /// The same budget with a phase observer attached.
    #[must_use]
    pub fn with_observer(mut self, observer: &'a (dyn Fn(&'static str, bool) + 'a)) -> Self {
        self.observer = Some(observer);
        self
    }
}

/// Runs `f` bracketed by the budget's phase observer, when present: the
/// observer sees `(phase, true)` before and `(phase, false)` after, and
/// `f`'s result passes through untouched — an `Err` closes the phase on
/// the way out because `f` returns the whole `Result`.
fn observe_phase<T>(budget: &NestBudget<'_>, phase: &'static str, f: impl FnOnce() -> T) -> T {
    match budget.observer {
        Some(observer) => {
            observer(phase, true);
            let out = f();
            observer(phase, false);
            out
        }
        None => f(),
    }
}

/// Countdown wrapper polling the cancellation callback once per
/// [`BUDGET_CHECK_QUANTUM`] ticks.
struct CancelPoll<'a> {
    cancelled: Option<&'a (dyn Fn() -> bool + 'a)>,
    countdown: u64,
}

impl<'a> CancelPoll<'a> {
    fn new(budget: &NestBudget<'a>) -> Self {
        Self {
            cancelled: budget.cancelled,
            countdown: BUDGET_CHECK_QUANTUM,
        }
    }

    /// Charges `steps` enumeration steps; polls the callback whenever a
    /// quantum has elapsed.
    fn tick(&mut self, steps: u64) -> Result<(), NestError> {
        let Some(cancelled) = self.cancelled else {
            return Ok(());
        };
        if self.countdown > steps {
            self.countdown -= steps;
            return Ok(());
        }
        self.countdown = BUDGET_CHECK_QUANTUM;
        if cancelled() {
            Err(NestError::Cancelled)
        } else {
            Ok(())
        }
    }
}

/// Error from [`analyze_nest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NestError {
    /// A reference's footprint leaves the `u64` word-address space.
    AddressOverflow {
        /// Index of the offending reference.
        ref_index: usize,
    },
    /// The relational domain handed components back and exact
    /// enumeration would materialize more than [`MAX_NEST_WORDS`] lines.
    TooLarge {
        /// Lines the enumeration would have needed.
        needed: u64,
    },
    /// The [`NestBudget`] cancellation callback fired (e.g. a request
    /// deadline passed); the analysis was abandoned unfinished.
    Cancelled,
}

impl fmt::Display for NestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::AddressOverflow { ref_index } => {
                write!(f, "reference {ref_index} leaves the u64 address space")
            }
            Self::TooLarge { needed } => write!(
                f,
                "undecided components need {needed} enumerated lines, above the {MAX_NEST_WORDS}-line bound"
            ),
            Self::Cancelled => write!(f, "analysis cancelled before completion"),
        }
    }
}

impl std::error::Error for NestError {}

/// How much structure of a reference's line footprint survived
/// abstraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Shape {
    /// No lines (empty iteration space).
    Empty,
    /// Exactly one line.
    Point,
    /// Exactly the arithmetic progression
    /// `{ first + k·step : 0 ≤ k < count }`.
    Progression {
        /// Line stride (≥ 1).
        step: u64,
        /// Number of lines.
        count: u64,
    },
    /// Exactly `seg_count` runs of `seg_len` consecutive lines, starting
    /// `seg_step` lines apart (`seg_step > seg_len`, so runs are
    /// disjoint) — the §4 sub-block footprint.
    SegmentGrid {
        /// Lines per run.
        seg_len: u64,
        /// Line distance between run starts.
        seg_step: u64,
        /// Number of runs.
        seg_count: u64,
    },
    /// Over-approximation: the footprint is *some subset* of
    /// `{ first + k·step } ∩ [first, last]`.
    Lattice,
}

/// Sound abstraction of one reference's cache-line footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LineSet {
    /// Smallest line touched (0 for empty sets).
    pub first: u64,
    /// Largest line touched (0 for empty sets).
    pub last: u64,
    /// Congruence: every line ≡ `first` (mod `step`); `step == 0` means
    /// at most one line.
    pub step: u64,
    /// Shape tag (see [`Shape`]).
    pub shape: Shape,
    /// Words the reference touches, counting revisits (saturating).
    pub words: u64,
}

impl LineSet {
    /// Upper bound on the number of distinct lines (exact for every
    /// shape but [`Shape::Lattice`]).
    #[must_use]
    pub fn distinct_upper_bound(&self) -> u64 {
        match self.shape {
            Shape::Empty => 0,
            Shape::Point => 1,
            Shape::Progression { count, .. } => count,
            Shape::SegmentGrid {
                seg_len, seg_count, ..
            } => seg_len.saturating_mul(seg_count),
            Shape::Lattice => {
                let span = self.last - self.first;
                let lattice = span.checked_div(self.step).map_or(1, |q| q + 1);
                lattice.min(self.words)
            }
        }
    }

    /// True when the shape describes the footprint exactly.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        !matches!(self.shape, Shape::Lattice)
    }
}

/// Running span of a sorted coefficient sweep: `(complete, span)` where
/// `complete` means the lattice `{Σ c_d·i_d}` is *exactly* the
/// progression `{0, g, 2g, …, span}` for `g = gcd(coeffs)`. The classic
/// criterion: absorb coefficients in ascending order; `c` extends a
/// dense-so-far prefix iff `c ≤ span + g`.
pub(crate) fn progression_span(sorted: &[(u64, u64)], g: u64) -> (bool, u128) {
    let mut span: u128 = 0;
    for &(c, trip) in sorted {
        if u128::from(c) > span + u128::from(g) {
            return (false, span);
        }
        span += u128::from(c) * u128::from(trip - 1);
    }
    (true, span)
}

/// Abstracts one reference to its [`LineSet`].
fn line_set(r: &AffineRef, line_words: u64, ref_index: usize) -> Result<LineSet, NestError> {
    if r.is_empty() {
        return Ok(LineSet {
            first: 0,
            last: 0,
            step: 0,
            shape: Shape::Empty,
            words: 0,
        });
    }
    let Some((min_w, max_w)) = r.word_range() else {
        return Err(NestError::AddressOverflow { ref_index });
    };
    let first = min_w / line_words;
    let last = max_w / line_words;
    let words = r.iterations();

    // Active dimensions, as (|coeff|, trip) with trip > 1. Signs do not
    // matter: re-indexing i ↦ trip−1−i reflects a negative term into a
    // positive one anchored at min_w.
    let mut active: Vec<(u64, u64)> = r
        .terms
        .iter()
        .filter(|t| t.coeff != 0 && t.trip > 1)
        .map(|t| (t.coeff.unsigned_abs(), t.trip))
        .collect();
    if active.is_empty() {
        return Ok(LineSet {
            first,
            last,
            step: 0,
            shape: Shape::Point,
            words,
        });
    }
    active.sort_unstable();
    let word_gcd = active.iter().fold(0u64, |g, &(c, _)| gcd(g, c));

    // Exact word-progression case: the words are exactly
    // min_w, min_w + g, …, max_w.
    let (word_complete, _) = progression_span(&active, word_gcd);
    if word_complete {
        if word_gcd.is_multiple_of(line_words) {
            // Adding multiples of the line size commutes with the
            // line-number division: an exact line progression.
            let count = (max_w - min_w) / word_gcd + 1;
            return Ok(LineSet {
                first,
                last,
                step: word_gcd / line_words,
                shape: Shape::Progression {
                    step: word_gcd / line_words,
                    count,
                },
                words,
            });
        }
        if word_gcd <= line_words {
            // Consecutive words are at most a line apart, so no line in
            // [first, last] is skipped: a contiguous line run.
            return Ok(LineSet {
                first,
                last,
                step: 1,
                shape: Shape::Progression {
                    step: 1,
                    count: last - first + 1,
                },
                words,
            });
        }
        // Dense word progression, but strides straddle line boundaries
        // unevenly: keep only the interval.
        return Ok(LineSet {
            first,
            last,
            step: 1,
            shape: Shape::Lattice,
            words,
        });
    }

    let aligned = active.iter().all(|&(c, _)| c.is_multiple_of(line_words));
    if !aligned {
        // Incomplete and unaligned: interval-only.
        return Ok(LineSet {
            first,
            last,
            step: 1,
            shape: Shape::Lattice,
            words,
        });
    }

    // Fully line-aligned: the line footprint is exactly the lattice
    // { first + Σ (c_d / L) · i_d }.
    let lines: Vec<(u64, u64)> = active
        .iter()
        .map(|&(c, trip)| (c / line_words, trip))
        .collect();
    let line_gcd = word_gcd / line_words;

    // Segment-grid attempt: a maximal dense prefix of unit-stride-ish
    // dimensions (step 1) forming runs, spaced by a clean outer
    // progression — the sub-block picture.
    if lines[0].0 == 1 {
        let mut split = lines.len();
        let mut seg_span: u128 = 0;
        for (i, &(c, trip)) in lines.iter().enumerate() {
            if u128::from(c) > seg_span + 1 {
                split = i;
                break;
            }
            seg_span += u128::from(c) * u128::from(trip - 1);
        }
        if split < lines.len() {
            let outer = &lines[split..];
            let outer_gcd = outer.iter().fold(0u64, |g, &(c, _)| gcd(g, c));
            let (outer_complete, outer_span) = progression_span(outer, outer_gcd);
            // seg_span < outer step here (the split condition), so the
            // u128 values fit u64 (both ≤ last − first).
            let seg_len = (seg_span as u64) + 1;
            if outer_complete && outer_gcd > seg_len {
                return Ok(LineSet {
                    first,
                    last,
                    step: 1,
                    shape: Shape::SegmentGrid {
                        seg_len,
                        seg_step: outer_gcd,
                        seg_count: (outer_span as u64) / outer_gcd + 1,
                    },
                    words,
                });
            }
        }
    }

    Ok(LineSet {
        first,
        last,
        step: line_gcd,
        shape: Shape::Lattice,
        words,
    })
}

/// Which decision settled a component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Rule {
    /// Relational: the component's achievable line differences lie in an
    /// interval containing no nonzero multiple of the set count, or an
    /// exhaustive walk of the bounded difference box settles it.
    BoundedOffset,
    /// Relational: congruence-class separation over the difference
    /// lattice — disjoint residue cosets, or a solver-constructed
    /// witness.
    CosetSeparated,
    /// Exact enumeration fallback.
    Enumerated,
}

/// A component of the conflict analysis: one reference against itself,
/// or an unordered reference pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Component {
    /// Lines of reference `r` against each other.
    Within {
        /// Reference index.
        r: usize,
    },
    /// Lines of reference `a` against lines of reference `b`.
    Pair {
        /// First reference index.
        a: usize,
        /// Second reference index.
        b: usize,
    },
}

/// One discharged proof obligation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ComponentProof {
    /// The component.
    pub component: Component,
    /// The rule that settled it.
    pub rule: Rule,
    /// True when the component is conflict-free.
    pub free: bool,
}

/// A concrete collision: two distinct lines in one set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Witness {
    /// Reference owning `line_a`.
    pub ref_a: usize,
    /// Reference owning `line_b` (equal to `ref_a` for within-reference
    /// collisions).
    pub ref_b: usize,
    /// First colliding line.
    pub line_a: u64,
    /// Second colliding line (distinct from `line_a`).
    pub line_b: u64,
    /// The shared set.
    pub set: u64,
}

/// Why one component fell through every symbolic rule to the
/// enumeration fallback. The reason strings are machine-readable
/// literals (enforced by lint VC008), so a shrinking fallback stays
/// auditable: any nonzero `enumerated_lines` names its cause.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FallbackReason {
    /// The component that was not settled symbolically.
    pub component: Component,
    /// Machine-readable reason (e.g. `class-split-overflow`).
    pub reason: String,
}

/// Layer-3 verdict for one (nest, geometry) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum NestVerdict {
    /// No two distinct lines of the footprint share a set.
    ConflictFree,
    /// Some stream maps two of its own distinct lines to one set.
    SelfInterfering,
    /// Distinct lines of different streams share a set (and no stream
    /// self-interferes).
    CrossInterfering,
}

impl NestVerdict {
    /// True for [`NestVerdict::ConflictFree`].
    #[must_use]
    pub fn is_conflict_free(&self) -> bool {
        matches!(self, Self::ConflictFree)
    }

    /// Coarse label, matching the Layer-2 [`crate::Verdict::label`].
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::ConflictFree => "conflict-free",
            Self::SelfInterfering => "self-interfering",
            Self::CrossInterfering => "cross-interfering",
        }
    }
}

impl fmt::Display for NestVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Complete Layer-3 analysis of one (nest, geometry) pair.
#[derive(Debug, Clone, Serialize)]
pub struct NestAnalysis {
    /// Nest name.
    pub nest: String,
    /// Geometry tag (`pow2` / `prime`).
    pub geometry: &'static str,
    /// Set count of the geometry.
    pub sets: u64,
    /// Words per line.
    pub line_words: u64,
    /// The verdict.
    pub verdict: NestVerdict,
    /// Per-reference abstractions, in nest order.
    pub line_sets: Vec<LineSet>,
    /// Every discharged component, with the rule that settled it.
    pub proofs: Vec<ComponentProof>,
    /// A concrete collision when the verdict is not conflict-free.
    pub witness: Option<Witness>,
    /// `Some(true)` when the footprint provably fits the cache (so the
    /// verdict maps 1:1 onto simulator conflict misses), `Some(false)`
    /// when it provably does not, `None` when the abstraction cannot
    /// tell.
    pub fits_capacity: Option<bool>,
    /// Lines materialized by enumeration fallbacks (0 = decided purely
    /// abstractly).
    pub enumerated_lines: u64,
    /// Machine-readable reasons for every component that needed the
    /// enumeration fallback (empty = fully symbolic).
    pub fallback_reasons: Vec<FallbackReason>,
}

/// Materializes the distinct lines of a reference, charging `budget`
/// (starting from `max_words`) and polling `poll` for cancellation.
fn enumerate_lines(
    r: &AffineRef,
    ls: &LineSet,
    line_words: u64,
    budget: &mut u64,
    max_words: u64,
    poll: &mut CancelPoll<'_>,
) -> Result<Vec<u64>, NestError> {
    let charge = |budget: &mut u64, cost: u64| {
        if cost > *budget {
            Err(NestError::TooLarge {
                needed: max_words - *budget + cost,
            })
        } else {
            *budget -= cost;
            Ok(())
        }
    };
    match ls.shape {
        Shape::Empty => Ok(Vec::new()),
        Shape::Point => {
            charge(budget, 1)?;
            Ok(vec![ls.first])
        }
        Shape::Progression { step, count } => {
            charge(budget, count)?;
            let mut out = Vec::with_capacity(count as usize);
            for k in 0..count {
                poll.tick(1)?;
                out.push(ls.first + k * step);
            }
            Ok(out)
        }
        Shape::SegmentGrid {
            seg_len,
            seg_step,
            seg_count,
        } => {
            charge(budget, seg_len.saturating_mul(seg_count))?;
            let mut out = Vec::new();
            for j in 0..seg_count {
                poll.tick(seg_len)?;
                let start = ls.first + j * seg_step;
                out.extend(start..start + seg_len);
            }
            Ok(out)
        }
        Shape::Lattice => {
            charge(budget, ls.words)?;
            // Walk the full iteration space; dedup through a set.
            let mut lines = std::collections::BTreeSet::new();
            let dims: Vec<_> = r.terms.iter().filter(|t| t.trip > 0).collect();
            let mut idx = vec![0u64; dims.len()];
            loop {
                poll.tick(1)?;
                let mut w = i128::from(r.base);
                for (t, &i) in dims.iter().zip(&idx) {
                    w += i128::from(t.coeff) * i128::from(i);
                }
                // In range by the word_range check in line_set.
                let w =
                    u64::try_from(w).map_err(|_| NestError::AddressOverflow { ref_index: 0 })?;
                lines.insert(w / line_words);
                let mut d = dims.len();
                loop {
                    if d == 0 {
                        break;
                    }
                    d -= 1;
                    idx[d] += 1;
                    if idx[d] < dims[d].trip {
                        break;
                    }
                    idx[d] = 0;
                }
                if idx.iter().all(|&i| i == 0) {
                    break;
                }
            }
            Ok(lines.into_iter().collect())
        }
    }
}

/// Scans one reference's lines for a within-reference collision,
/// returning the colliding pair.
fn scan_within(
    lines: &[u64],
    geometry: &Geometry,
    poll: &mut CancelPoll<'_>,
) -> Result<Option<(u64, u64)>, NestError> {
    let mut seen: BTreeMap<u64, u64> = BTreeMap::new();
    for &line in lines {
        poll.tick(1)?;
        if let Some(&other) = seen.get(&geometry.set_of_line(line)) {
            if other != line {
                return Ok(Some((other, line)));
            }
        } else {
            seen.insert(geometry.set_of_line(line), line);
        }
    }
    Ok(None)
}

/// Scans a reference pair for a cross-reference collision of *distinct*
/// lines. `map_a` holds one representative line of `a` per set; if `a`
/// self-conflicts the overall verdict is already interfering, so a
/// single representative is enough.
fn scan_pair(
    map_a: &BTreeMap<u64, u64>,
    lines_b: &[u64],
    geometry: &Geometry,
    poll: &mut CancelPoll<'_>,
) -> Result<Option<(u64, u64)>, NestError> {
    for &line in lines_b {
        poll.tick(1)?;
        if let Some(&other) = map_a.get(&geometry.set_of_line(line)) {
            if other != line {
                return Ok(Some((other, line)));
            }
        }
    }
    Ok(None)
}

/// Statically analyzes `nest` against `geometry` under the default
/// [`NestBudget`] (full word cap, no cancellation).
///
/// # Errors
///
/// [`NestError::AddressOverflow`] when a reference leaves the `u64`
/// address space; [`NestError::TooLarge`] when the relational domain
/// hands components back and exact fallback enumeration would exceed
/// [`MAX_NEST_WORDS`] lines.
pub fn analyze_nest(nest: &LoopNest, geometry: &Geometry) -> Result<NestAnalysis, NestError> {
    analyze_nest_with_budget(nest, geometry, &NestBudget::default())
}

/// Statically analyzes `nest` against `geometry` under an explicit
/// [`NestBudget`]. The cancellation callback (if any) is polled before
/// each component's symbolic decision and at least every
/// [`BUDGET_CHECK_QUANTUM`] enumeration steps, so a caller enforcing a
/// deadline observes [`NestError::Cancelled`] within one component
/// decision or one enumeration quantum past the deadline.
///
/// # Errors
///
/// As [`analyze_nest`], plus [`NestError::Cancelled`] when the budget's
/// callback fires.
pub fn analyze_nest_with_budget(
    nest: &LoopNest,
    geometry: &Geometry,
    nest_budget: &NestBudget<'_>,
) -> Result<NestAnalysis, NestError> {
    let mut poll = CancelPoll::new(nest_budget);
    let line_words = geometry.line_words();
    let line_sets: Vec<LineSet> = observe_phase(nest_budget, "lineset", || {
        nest.refs
            .iter()
            .enumerate()
            .map(|(i, r)| line_set(r, line_words, i))
            .collect::<Result<_, _>>()
    })?;

    let mut proofs = Vec::new();
    let mut conflicts: Vec<Witness> = Vec::new();
    let mut record = |component: Component, rule: Rule, witness: Option<(u64, u64)>| {
        proofs.push(ComponentProof {
            component,
            rule,
            free: witness.is_none(),
        });
        if let Some((line_a, line_b)) = witness {
            let (ref_a, ref_b) = match component {
                Component::Within { r } => (r, r),
                Component::Pair { a, b } => (a, b),
            };
            conflicts.push(Witness {
                ref_a,
                ref_b,
                line_a,
                line_b,
                set: geometry.set_of_line(line_a),
            });
        }
    };

    // Every component goes through the relational domain; what it hands
    // back, with a reason, is left for enumeration.
    let refs = &nest.refs;
    let mut fallback_reasons: Vec<FallbackReason> = Vec::new();
    observe_phase(nest_budget, "rules", || {
        let pairs = (0..refs.len())
            .flat_map(|a| (a + 1..refs.len()).map(move |b| Component::Pair { a, b }));
        for component in (0..refs.len())
            .map(|r| Component::Within { r })
            .chain(pairs)
        {
            // One poll per component: a symbolic decision is never cut
            // short, so this bounds how long a fired budget goes unseen.
            if nest_budget.cancelled.is_some_and(|cancelled| cancelled()) {
                return Err(NestError::Cancelled);
            }
            let outcome = match component {
                Component::Within { r } => relational::decide_within(&refs[r], geometry),
                Component::Pair { a, b } => relational::decide_pair(&refs[a], &refs[b], geometry),
            };
            match outcome {
                RelOutcome::Free(rule) => record(component, rule, None),
                RelOutcome::Conflict(rule, a, b) => record(component, rule, Some((a, b))),
                RelOutcome::NeedsEnumeration(reason) => fallback_reasons.push(FallbackReason {
                    component,
                    reason: reason.to_owned(),
                }),
            }
        }
        Ok(())
    })?;

    // Exact fallback for whatever the relational domain handed back.
    let enumerated_lines = observe_phase(nest_budget, "enumerate", || {
        let max_words = nest_budget.max_words;
        let mut budget = max_words;
        let mut enumerated: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        let mut set_maps: BTreeMap<usize, BTreeMap<u64, u64>> = BTreeMap::new();
        let needed: Vec<usize> = {
            let mut v: Vec<usize> = fallback_reasons
                .iter()
                .flat_map(|f| match f.component {
                    Component::Within { r } => vec![r],
                    Component::Pair { a, b } => vec![a, b],
                })
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        for &i in &needed {
            let lines = enumerate_lines(
                &refs[i],
                &line_sets[i],
                line_words,
                &mut budget,
                max_words,
                &mut poll,
            )?;
            let mut map = BTreeMap::new();
            for &line in &lines {
                poll.tick(1)?;
                map.entry(geometry.set_of_line(line)).or_insert(line);
            }
            set_maps.insert(i, map);
            enumerated.insert(i, lines);
        }
        for &FallbackReason { component, .. } in &fallback_reasons {
            let witness = match component {
                Component::Within { r } => scan_within(&enumerated[&r], geometry, &mut poll)?,
                Component::Pair { a, b } => {
                    scan_pair(&set_maps[&a], &enumerated[&b], geometry, &mut poll)?
                }
            };
            record(component, Rule::Enumerated, witness);
        }
        Ok::<u64, NestError>(max_words - budget)
    })?;

    // Classify: self beats cross, matching Layer 2.
    let is_self =
        |w: &Witness| w.ref_a == w.ref_b || nest.refs[w.ref_a].stream == nest.refs[w.ref_b].stream;
    let self_witness = conflicts.iter().find(|w| is_self(w)).copied();
    let cross_witness = conflicts.iter().find(|w| !is_self(w)).copied();
    let (verdict, witness) = match (self_witness, cross_witness) {
        (Some(w), _) => (NestVerdict::SelfInterfering, Some(w)),
        (None, Some(w)) => (NestVerdict::CrossInterfering, Some(w)),
        (None, None) => (NestVerdict::ConflictFree, None),
    };

    // Capacity: a sound upper bound on the union proves fit; an exact
    // per-reference count above S proves overflow.
    let upper: u64 = line_sets.iter().fold(0u64, |acc, ls| {
        acc.saturating_add(ls.distinct_upper_bound())
    });
    let fits_capacity = if upper <= geometry.sets() {
        Some(true)
    } else if line_sets
        .iter()
        .any(|ls| ls.is_exact() && ls.distinct_upper_bound() > geometry.sets())
    {
        Some(false)
    } else {
        None
    };

    Ok(NestAnalysis {
        nest: nest.name.clone(),
        geometry: geometry.kind(),
        sets: geometry.sets(),
        line_words,
        verdict,
        line_sets,
        proofs,
        witness,
        fits_capacity,
        enumerated_lines,
        fallback_reasons,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::Term;

    fn pow2(sets: u64, lw: u64) -> Geometry {
        Geometry::pow2(sets, lw).unwrap()
    }

    fn prime(c: u32, lw: u64) -> Geometry {
        Geometry::prime(c, lw).unwrap()
    }

    fn nest1(name: &str, base: u64, terms: Vec<Term>) -> LoopNest {
        LoopNest::new(name, vec![AffineRef::new(base, terms, 0)])
    }

    fn t(coeff: i64, trip: u64) -> Term {
        Term { coeff, trip }
    }

    /// Four odd strides on 8-word lines split into 8⁴ congruence
    /// classes, past the relational domain's class cap: a nest that
    /// really falls back to enumeration. `n = 24` walks 331,776 points;
    /// `n = 80` is past [`MAX_NEST_WORDS`].
    fn odd_strides(n: u64) -> LoopNest {
        nest1("odd-strides", 0, vec![t(3, n), t(5, n), t(7, n), t(9, n)])
    }

    /// True when some iteration point of `r` falls on `line` (a walk of
    /// the whole iteration space, for small references).
    fn touches(r: &AffineRef, line_words: u64, line: u64) -> bool {
        let mut idx = vec![0u64; r.terms.len()];
        loop {
            let word = r
                .terms
                .iter()
                .zip(&idx)
                .fold(i128::from(r.base), |w, (t, &i)| {
                    w + i128::from(t.coeff) * i128::from(i)
                });
            if u64::try_from(word).is_ok_and(|w| w / line_words == line) {
                return true;
            }
            let Some(d) = (0..idx.len()).rev().find(|&d| idx[d] + 1 < r.terms[d].trip) else {
                return false;
            };
            idx[d] += 1;
            idx[d + 1..].fill(0);
        }
    }

    /// Asserts a witness is a real collision: two distinct lines, each
    /// touched by its reference, in the one set it names.
    fn assert_witness(n: &LoopNest, g: &Geometry, w: &Witness) {
        assert_ne!(w.line_a, w.line_b, "{w:?}");
        assert_eq!(g.set_of_line(w.line_a), w.set, "{w:?}");
        assert_eq!(g.set_of_line(w.line_b), w.set, "{w:?}");
        assert!(touches(&n.refs[w.ref_a], g.line_words(), w.line_a), "{w:?}");
        assert!(touches(&n.refs[w.ref_b], g.line_words(), w.line_b), "{w:?}");
    }

    #[test]
    fn shapes_abstract_precisely() {
        let ls = |terms: Vec<Term>, lw: u64| line_set(&AffineRef::new(0, terms, 0), lw, 0).unwrap();
        assert_eq!(ls(vec![t(1, 0)], 1).shape, Shape::Empty);
        assert_eq!(ls(vec![t(0, 5)], 8).shape, Shape::Point);
        // Aligned stride: exact progression in lines.
        assert_eq!(
            ls(vec![t(16, 10)], 8).shape,
            Shape::Progression { step: 2, count: 10 }
        );
        // Unit-ish strides merge into a contiguous run.
        assert_eq!(
            ls(vec![t(3, 8)], 8).shape,
            Shape::Progression { step: 1, count: 3 }
        );
        // Sub-block: runs of 4 lines every 100.
        assert_eq!(
            ls(vec![t(100, 3), t(1, 4)], 1).shape,
            Shape::SegmentGrid {
                seg_len: 4,
                seg_step: 100,
                seg_count: 3
            }
        );
        // Overlapping-complete two-dimensional lattice: words {i + 3j}
        // cover 0..=21 densely.
        assert_eq!(
            ls(vec![t(3, 5), t(1, 10)], 1).shape,
            Shape::Progression { step: 1, count: 22 }
        );
        // Unaligned wide stride: interval only.
        assert_eq!(ls(vec![t(12, 50)], 8).shape, Shape::Lattice);
        // Negative strides reflect to the same footprint.
        let neg = line_set(&AffineRef::new(16 * 9, vec![t(-16, 10)], 0), 8, 0).unwrap();
        assert_eq!(neg.shape, Shape::Progression { step: 2, count: 10 });
        assert_eq!(neg.first, 0);
    }

    #[test]
    fn orbit_rule_matches_layer2() {
        // Line stride 512 over 8192 sets: an orbit of 16 sets (Eq. 8)
        // for 8191 lines, so the stride self-interferes.
        let n = nest1("orbit", 0, vec![t(4096, 8191)]);
        let g = pow2(8192, 8);
        let a = analyze_nest(&n, &g).unwrap();
        assert_eq!(a.verdict, NestVerdict::SelfInterfering);
        assert_eq!(a.enumerated_lines, 0);
        assert_witness(&n, &g, &a.witness.unwrap());
        // Same nest under the prime mapper: free, still abstract.
        let a = analyze_nest(&n, &prime(13, 8)).unwrap();
        assert_eq!(a.verdict, NestVerdict::ConflictFree);
        assert_eq!(a.enumerated_lines, 0);
    }

    #[test]
    fn huge_nests_are_decided_abstractly() {
        // 2^32 words of traffic over a 512-line window: the
        // reference-level interval decides it with no enumeration.
        let n = nest1("huge", 0, vec![t(0, 1 << 20), t(1, 4096)]);
        for g in [pow2(8192, 8), prime(13, 8)] {
            let a = analyze_nest(&n, &g).unwrap();
            assert_eq!(a.verdict, NestVerdict::ConflictFree, "{}", g);
            assert_eq!(a.enumerated_lines, 0);
            assert_eq!(a.fits_capacity, Some(true));
        }
    }

    #[test]
    fn lattice_nests_are_decided_symbolically() {
        // Unaligned wide stride: the relational domain settles it with
        // zero enumeration. 50 words at stride 12 span 76 lines over 32
        // sets ⇒ must conflict.
        let n = nest1("lat", 0, vec![t(12, 50)]);
        let a = analyze_nest(&n, &pow2(32, 8)).unwrap();
        assert_eq!(a.enumerated_lines, 0);
        assert!(a.fallback_reasons.is_empty(), "{:?}", a.fallback_reasons);
        assert_eq!(a.verdict, NestVerdict::SelfInterfering);
        assert_witness(&n, &pow2(32, 8), &a.witness.unwrap());
    }

    #[test]
    fn footprints_beyond_the_enumeration_cap_are_decided() {
        // An unaligned footprint the fallback could never materialize
        // is now settled symbolically…
        let big = nest1("big", 0, vec![t(3, MAX_NEST_WORDS / 2), t(7, 3)]);
        let a = analyze_nest(&big, &pow2(32, 8)).unwrap();
        assert_eq!(a.enumerated_lines, 0);
        assert_eq!(a.verdict, NestVerdict::SelfInterfering);
        // …while a nest the domain hands back and whose walk would pass
        // the cap is rejected as too large, so the budget stays honest.
        let a = analyze_nest_with_budget(&odd_strides(80), &prime(5, 8), &NestBudget::default());
        assert!(matches!(a, Err(NestError::TooLarge { .. })), "{a:?}");
    }

    #[test]
    fn address_overflow_is_an_error() {
        let n = nest1("ovf", u64::MAX - 10, vec![t(8, 4)]);
        assert_eq!(
            analyze_nest(&n, &pow2(32, 8)).err(),
            Some(NestError::AddressOverflow { ref_index: 0 })
        );
        assert!(NestError::AddressOverflow { ref_index: 0 }
            .to_string()
            .contains("address space"));
        assert!(NestError::TooLarge { needed: 7 }.to_string().contains("7"));
    }

    #[test]
    fn arc_tiling_matches_subblock_checker() {
        use vcache_core::blocking::is_conflict_free;
        use vcache_mersenne::MersenneModulus;
        let m = MersenneModulus::new(13).unwrap();
        for (p, b1, b2) in [
            (10_000u64, 1000u64, 8u64), // the paper's erratum shape
            (10_000, 1000, 4),
            (10_000, 1809, 4),
            (8192, 1, 4096),
            (1024, 1, 31),
        ] {
            let n = nest1("sb", 0, vec![t(p as i64, b2), t(1, b1)]);
            let a = analyze_nest(&n, &prime(13, 1)).unwrap();
            assert_eq!(
                a.verdict.is_conflict_free(),
                is_conflict_free(p, b1, b2, m),
                "p={p} b1={b1} b2={b2}"
            );
        }
        // Grids too wide for the residue DP: b1·b2 lines outnumber the
        // sets, so they self-interfere by pigeonhole (the checker above
        // would reserve b1·b2 slots to say so), and the domain must
        // still decide them without enumerating.
        for (p, b1, b2, g) in [
            (10_000u64, 5000u64, 5000u64, prime(13, 1)),
            (10_000, 5000, 5000, prime(17, 1)),
            (9000, 4096, 4096, prime(13, 1)),
        ] {
            let n = nest1("wide", 0, vec![t(p as i64, b2), t(1, b1)]);
            let a = analyze_nest(&n, &g).unwrap();
            assert_eq!(a.verdict, NestVerdict::SelfInterfering, "p={p} {g}");
            assert_eq!(a.enumerated_lines, 0, "p={p} {g}");
            let w = a.witness.unwrap();
            assert_ne!(w.line_a, w.line_b);
            assert_eq!(g.set_of_line(w.line_a), g.set_of_line(w.line_b));
            for line in [w.line_a, w.line_b] {
                assert!(line / p < b2 && line % p < b1, "{line} off the grid");
            }
        }
    }

    #[test]
    fn coset_rule_separates_far_apart_parity_classes() {
        // Stride-2 streams a megaword apart: opposite parities never
        // meet under the pow2 mapper, while one word closer they share
        // a parity class and collide.
        let g = pow2(8192, 1);
        for (base_b, verdict) in [
            (1_000_001, NestVerdict::ConflictFree),
            (1_000_000, NestVerdict::CrossInterfering),
        ] {
            let a = AffineRef::new(0, vec![t(2, 2048)], 0);
            let b = AffineRef::new(base_b, vec![t(2, 2048)], 1);
            let n = LoopNest::new("coset", vec![a, b]);
            let an = analyze_nest(&n, &g).unwrap();
            assert_eq!(an.verdict, verdict, "base {base_b}");
            assert_eq!(an.enumerated_lines, 0);
            if let Some(w) = an.witness {
                assert_witness(&n, &g, &w);
            }
        }
    }

    #[test]
    fn cross_conflicts_are_classified_and_witnessed() {
        let a = AffineRef::new(0, vec![t(1, 64)], 0);
        let b = AffineRef::new(8 * 8192 * 8, vec![t(1, 64)], 1);
        let n = LoopNest::new("alias", vec![a, b]);
        let an = analyze_nest(&n, &pow2(8192, 8)).unwrap();
        assert_eq!(an.verdict, NestVerdict::CrossInterfering);
        let w = an.witness.unwrap();
        assert_ne!(w.line_a, w.line_b);
        assert_eq!(
            Geometry::pow2(8192, 8).unwrap().set_of_line(w.line_b),
            w.set
        );
        // Same streams ⇒ the same collision is self-interference.
        let mut same = n.clone();
        same.refs[1].stream = 0;
        let an = analyze_nest(&same, &pow2(8192, 8)).unwrap();
        assert_eq!(an.verdict, NestVerdict::SelfInterfering);
    }

    #[test]
    fn budget_cancellation_is_observed_within_a_quantum() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let n = odd_strides(24);
        let calls = AtomicU64::new(0);
        // The first poll guards the one component's symbolic decision;
        // cancel on the second, inside the enumeration fallback: the
        // analysis must stop long before finishing the 331,776-step walk.
        let hook = || calls.fetch_add(1, Ordering::Relaxed) >= 1;
        let budget = NestBudget::with_cancel(&hook);
        assert_eq!(
            analyze_nest_with_budget(&n, &prime(5, 8), &budget).err(),
            Some(NestError::Cancelled)
        );
        let polls = calls.load(Ordering::Relaxed);
        assert!(polls >= 2, "callback polled {polls} times");
        // Each poll covers at most one quantum, so total work before the
        // cancel was bounded by polls × quantum — far below the walk.
        assert!(polls * BUDGET_CHECK_QUANTUM < 331_776);
        assert!(NestError::Cancelled.to_string().contains("cancelled"));
    }

    #[test]
    fn fired_budget_cancels_a_symbolic_analysis() {
        use std::cell::{Cell, RefCell};
        // A nest the relational domain decides without enumerating: the
        // per-component poll alone must see the fired budget, and the
        // interrupted `rules` phase must still close.
        let polls = Cell::new(0u32);
        let hook = || {
            polls.set(polls.get() + 1);
            true
        };
        let events: RefCell<Vec<(&'static str, bool)>> = RefCell::new(Vec::new());
        let obs = |phase: &'static str, begin: bool| events.borrow_mut().push((phase, begin));
        let budget = NestBudget::with_cancel(&hook).with_observer(&obs);
        let n = nest1("pow2-stride", 0, vec![t(4096, 8191)]);
        assert_eq!(
            analyze_nest_with_budget(&n, &pow2(8192, 8), &budget).err(),
            Some(NestError::Cancelled)
        );
        assert_eq!(polls.get(), 1);
        assert_eq!(
            events.into_inner(),
            vec![
                ("lineset", true),
                ("lineset", false),
                ("rules", true),
                ("rules", false),
            ]
        );
    }

    #[test]
    fn never_firing_callback_changes_nothing() {
        let n = nest1("lat", 0, vec![t(12, 50)]);
        let hook = || false;
        let budget = NestBudget::with_cancel(&hook);
        let with = analyze_nest_with_budget(&n, &pow2(32, 8), &budget).unwrap();
        let without = analyze_nest(&n, &pow2(32, 8)).unwrap();
        assert_eq!(with.verdict, without.verdict);
        assert_eq!(with.enumerated_lines, without.enumerated_lines);
    }

    #[test]
    fn shrunken_word_cap_rejects_as_too_large() {
        let budget = NestBudget {
            max_words: 4,
            ..NestBudget::default()
        };
        assert!(matches!(
            analyze_nest_with_budget(&odd_strides(24), &prime(5, 8), &budget),
            Err(NestError::TooLarge { .. })
        ));
    }

    #[test]
    fn phase_observer_brackets_every_phase_in_order() {
        use std::cell::RefCell;
        let events: RefCell<Vec<(&'static str, bool)>> = RefCell::new(Vec::new());
        let obs = |phase: &'static str, begin: bool| events.borrow_mut().push((phase, begin));
        // A nest the domain hands back, so all three phases do real
        // work.
        let budget = NestBudget::default().with_observer(&obs);
        let a = analyze_nest_with_budget(&odd_strides(24), &prime(5, 8), &budget).unwrap();
        assert!(a.enumerated_lines > 0);
        assert_eq!(
            events.into_inner(),
            vec![
                ("lineset", true),
                ("lineset", false),
                ("rules", true),
                ("rules", false),
                ("enumerate", true),
                ("enumerate", false),
            ]
        );
    }

    #[test]
    fn phase_observer_balances_even_when_cancelled() {
        use std::cell::{Cell, RefCell};
        // Cancel at the first poll (the component's symbolic decision,
        // inside `rules`) and at the second (inside `enumerate`).
        for (fire_at, cut) in [(1, "rules"), (2, "enumerate")] {
            let events: RefCell<Vec<(&'static str, bool)>> = RefCell::new(Vec::new());
            let obs = |phase: &'static str, begin: bool| events.borrow_mut().push((phase, begin));
            let polls = Cell::new(0);
            let hook = || {
                polls.set(polls.get() + 1);
                polls.get() >= fire_at
            };
            let budget = NestBudget::with_cancel(&hook).with_observer(&obs);
            assert_eq!(
                analyze_nest_with_budget(&odd_strides(24), &prime(5, 8), &budget).err(),
                Some(NestError::Cancelled)
            );
            let events = events.into_inner();
            // Every begun phase ended, including the one that was
            // cancelled, which is the last to close.
            let mut open: Vec<&'static str> = Vec::new();
            for (phase, begin) in &events {
                if *begin {
                    open.push(phase);
                } else {
                    assert_eq!(open.pop(), Some(*phase), "unbalanced: {events:?}");
                }
            }
            assert!(open.is_empty(), "phases left open: {open:?}");
            assert_eq!(events.last(), Some(&(cut, false)), "{events:?}");
        }
    }

    #[test]
    fn observed_analysis_is_identical_to_unobserved() {
        let obs = |_phase: &'static str, _begin: bool| {};
        for terms in [
            vec![t(12, 50)],
            vec![t(4096, 8191)],
            vec![t(100, 3), t(1, 4)],
        ] {
            let n = nest1("same", 0, terms);
            for g in [pow2(32, 8), prime(13, 8)] {
                let plain = analyze_nest(&n, &g).unwrap();
                let budget = NestBudget::default().with_observer(&obs);
                let observed = analyze_nest_with_budget(&n, &g, &budget).unwrap();
                assert_eq!(format!("{plain:?}"), format!("{observed:?}"));
            }
        }
    }

    #[test]
    fn capacity_classification() {
        // Fits: 8 lines in 32 sets.
        let n = nest1("small", 0, vec![t(8, 8)]);
        let a = analyze_nest(&n, &pow2(32, 8)).unwrap();
        assert_eq!(a.fits_capacity, Some(true));
        // Provably overflows: an exact progression of 100 lines in 32
        // sets.
        let n = nest1("over", 0, vec![t(8, 100)]);
        let a = analyze_nest(&n, &pow2(32, 8)).unwrap();
        assert_eq!(a.fits_capacity, Some(false));
    }
}
