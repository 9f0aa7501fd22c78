//! Relational disjointness domain: the one decision procedure for every
//! Layer-3 component (a reference against itself, or a reference pair).
//! Difference intervals and congruence reasoning over congruence-class
//! splitting decide each component *symbolically* instead of by
//! materializing lines (DESIGN.md §6b, §6d).
//!
//! Both set mappers reduce a line number modulo the set count `S` (the
//! pow2 mask and the Mersenne residue are both `line mod S`), so two
//! iteration points collide iff their line difference is a **nonzero
//! multiple of `S`**. The domain decides that property in four steps:
//!
//! 1. **Reference interval.** Every difference `ℓ_b − ℓ_a` lies in
//!    `[first_b − last_a, last_b − first_a]` of the two references'
//!    whole line intervals. No nonzero multiple of `S` in it ⇒ free
//!    ([`Rule::BoundedOffset`]) without splitting anything — for a
//!    reference against itself, the window test `last − first < S`.
//! 2. **Congruence-class splitting.** A reference with an unaligned
//!    stride `c` (`c mod L ≠ 0` for line size `L`) has no per-dimension
//!    line stride — successive iterations carry unevenly across line
//!    boundaries. But splitting the index as `i = P·u + v` with
//!    `P = L / gcd(c, L)` makes the sub-stride `c·P` line-aligned, so
//!    each residue class `v` is an **exact, carry-free line lattice**
//!    `{ base_v + Σ (c·P/L)·u_d }`. The footprint is the disjoint union
//!    of at most `Π min(P_d, n_d)` such classes ([`class_lattices`]).
//! 3. **Class difference interval.** For each class pair, the achievable
//!    line difference `ℓ_b − ℓ_a` is `D + Σ_B c·u − Σ_A c·u` over boxed
//!    indices `0 ≤ u ≤ n − 1` that vary independently, so its exact
//!    interval is `[D − Σ_A c·(n−1), D + Σ_B c·(n−1)]`. No nonzero
//!    multiple of `S` in the interval ⇒ disjoint
//!    ([`Rule::BoundedOffset`]).
//! 4. **Congruence-class separation.** Every achievable difference is
//!    `D + v` with `v ≡ 0 (mod g)` for `g = gcd` of the pair's line
//!    strides. If `gcd(g, S) ∤ D` the residue cosets are disjoint; if
//!    the difference box is *complete* (a dense progression of step
//!    `g` — the classic sorted-coefficient criterion), the CRT decides
//!    exactly which multiples of `S` are achievable and a greedy
//!    coefficient walk reconstructs a concrete witness
//!    ([`Rule::CosetSeparated`]). The paper's Eq. 8 orbit bound is this
//!    case for a single progression. Incomplete boxes (the §4 sub-block
//!    grids among them) are closed exactly by, in order of cost: a
//!    per-dimension modular sweep, a capped walk of the merged
//!    *difference box* (never of the line footprint), a mixed solve that
//!    enumerates the narrow dimensions and closes the widest one with one
//!    modular multiply per combination (the congruence solved once per
//!    call), a min/max dynamic program over residues mod `S` — O(S) per
//!    merged dimension whatever its width, where the walk is exponential,
//!    and shared across every class pair with the same dimension
//!    signature — and, where the DP cannot take the box, the mixed solve
//!    again, capped only by the component's work budget.
//!
//! Everything here is exact: a [`RelOutcome::Free`] means no two
//! distinct lines of the component share a set, a
//! [`RelOutcome::Conflict`] carries two concrete colliding lines, and
//! anything the domain cannot settle returns
//! [`RelOutcome::NeedsEnumeration`] with a machine-readable reason
//! (VC008 keeps those reasons string literals, so the fallback stays
//! auditable).

use std::collections::{BTreeMap, VecDeque};

use vcache_mersenne::numtheory::{gcd, mod_inverse, mod_mul};

use crate::absint::{progression_span, Rule};
use crate::conflict::Geometry;
use crate::nest::AffineRef;

/// Most congruence classes one reference may split into; beyond this
/// the split is abandoned (`class-split-overflow`) rather than risking
/// quadratic blowup in the pair scan.
pub const MAX_CLASSES: usize = 512;

/// Most class pairs examined with the per-pair closers; beyond this
/// only the O(1)-per-pair signature-shared machinery runs.
const MAX_CLASS_PAIRS: usize = 4096;

/// Most class pairs examined at all per component.
const MAX_SHARED_PAIRS: usize = 1 << 19;

/// Largest merged difference box walked exhaustively for one pair.
const BOX_WALK_PAIR_CAP: u128 = 1 << 16;

/// Largest narrow-dimension box the mixed congruence solve enumerates
/// ahead of the residue DP (behind it, only the work budget caps it).
const SOLVE_BOX_CAP: u128 = 1 << 12;

/// Largest set count the residue DP will allocate tables for.
const MAX_DP_SETS: u64 = 1 << 14;

/// Total symbolic work (walk steps, solve combinations, DP table
/// updates) allowed per component.
const COMPONENT_WORK_BUDGET: u128 = 1 << 25;

/// One congruence class of a reference's iteration space: the **exact**
/// carry-free line lattice `{ base + Σ stride_d·u_d : 0 ≤ u_d < trip_d }`
/// (every `stride_d ≥ 1`, every `trip_d ≥ 2`). The classes of one
/// reference partition its iteration points, so the reference's line
/// footprint is exactly the union of its class lattices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassLattice {
    /// Line of the class's smallest word.
    pub base: u64,
    /// Per-dimension `(line stride, trip count)`.
    pub dims: Vec<(u64, u64)>,
}

/// Splits a reference into exact carry-free [`ClassLattice`]s.
///
/// Aligned dimensions (`stride ≡ 0 mod L`) pass through with line
/// stride `c/L`. An unaligned dimension is refined by `i = P·u + v`,
/// `P = L / gcd(c, L)`: the sub-stride `c·P` is a multiple of `L`, so
/// within each residue class `v` the line number is exactly
/// `(base + c·v)/L + (c·P/L)·u` — the carry is constant per class. A
/// *complete* word progression (the sorted-coefficient density
/// criterion) is first collapsed to one synthetic dimension, which
/// keeps the class count at `L/gcd` instead of a per-dimension product.
///
/// # Errors
///
/// A machine-readable reason when the reference cannot be split within
/// [`MAX_CLASSES`] (or its footprint leaves the address space).
pub fn class_lattices(r: &AffineRef, line_words: u64) -> Result<Vec<ClassLattice>, &'static str> {
    if r.is_empty() {
        return Ok(Vec::new());
    }
    let Some((min_w, max_w)) = r.word_range() else {
        return Err("class-split-address-overflow");
    };
    let lw = line_words;
    let mut active: Vec<(u64, u64)> = r
        .terms
        .iter()
        .filter(|t| t.coeff != 0 && t.trip > 1)
        .map(|t| (t.coeff.unsigned_abs(), t.trip))
        .collect();
    if active.is_empty() {
        return Ok(vec![ClassLattice {
            base: min_w / lw,
            dims: Vec::new(),
        }]);
    }
    active.sort_unstable();
    let g = active.iter().fold(0u64, |g, &(c, _)| gcd(g, c));
    let (complete, span) = progression_span(&active, g);
    if complete {
        // The words are exactly min_w, min_w + g, …, max_w.
        let count = span_count(span, g);
        if g.is_multiple_of(lw) {
            return Ok(vec![ClassLattice {
                base: min_w / lw,
                dims: keep_dim(g / lw, count),
            }]);
        }
        if g <= lw {
            // No line in [first, last] is skipped: a contiguous run.
            return Ok(vec![ClassLattice {
                base: min_w / lw,
                dims: keep_dim(1, max_w / lw - min_w / lw + 1),
            }]);
        }
        // Dense but line-straddling: split the single synthetic
        // dimension instead of the original product space.
        active = vec![(g, count)];
    }

    let mut classes: Vec<(u64, Vec<(u64, u64)>)> = vec![(0, Vec::new())];
    for &(c, n) in &active {
        if c.is_multiple_of(lw) {
            for cl in &mut classes {
                cl.1.push((c / lw, n));
            }
            continue;
        }
        let p = lw / gcd(c, lw);
        let q = u64::try_from(u128::from(c) * u128::from(p) / u128::from(lw))
            .map_err(|_| "class-split-stride-overflow")?;
        let vmax = p.min(n);
        if classes
            .len()
            .saturating_mul(usize::try_from(vmax).map_err(|_| "class-split-overflow")?)
            > MAX_CLASSES
        {
            return Err("class-split-overflow");
        }
        let mut next = Vec::with_capacity(classes.len() * vmax as usize);
        for (off, dims) in &classes {
            for v in 0..vmax {
                let trip = (n - v).div_ceil(p);
                let mut dims = dims.clone();
                dims.extend(keep_dim(q, trip));
                next.push((off + c * v, dims));
            }
        }
        classes = next;
    }
    Ok(classes
        .into_iter()
        .map(|(off, dims)| ClassLattice {
            base: (min_w + off) / lw,
            dims,
        })
        .collect())
}

/// Line count of a complete progression covering `span` at step `g`.
fn span_count(span: u128, g: u64) -> u64 {
    // span = g·(count − 1) ≤ max_w − min_w fits u64; g ≥ 1 here.
    u64::try_from(span / u128::from(g.max(1))).map_or(u64::MAX, |v| v.saturating_add(1))
}

/// A dimension list holding `(stride, trip)` iff it moves (trip ≥ 2).
fn keep_dim(stride: u64, trip: u64) -> Vec<(u64, u64)> {
    if trip >= 2 && stride >= 1 {
        vec![(stride, trip)]
    } else {
        Vec::new()
    }
}

/// Outcome of a relational component decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelOutcome {
    /// No two distinct lines of the component share a set.
    Free(Rule),
    /// Two concrete distinct lines share a set.
    Conflict(Rule, u64, u64),
    /// The domain cannot settle the component; the payload is a
    /// machine-readable reason for the enumeration fallback.
    NeedsEnumeration(&'static str),
}

/// Decides one reference against itself.
#[must_use]
pub fn decide_within(r: &AffineRef, geometry: &Geometry) -> RelOutcome {
    if intervals_bounded(r, r, geometry) {
        return RelOutcome::Free(Rule::BoundedOffset);
    }
    match class_lattices(r, geometry.line_words()) {
        Ok(classes) => {
            let mut budget = COMPONENT_WORK_BUDGET;
            decide_class_sets(&classes, &classes, true, geometry.sets(), &mut budget)
        }
        Err(reason) => RelOutcome::NeedsEnumeration(reason),
    }
}

/// Decides a reference pair (distinct lines of `a` against `b`).
#[must_use]
pub fn decide_pair(a: &AffineRef, b: &AffineRef, geometry: &Geometry) -> RelOutcome {
    if intervals_bounded(a, b, geometry) {
        return RelOutcome::Free(Rule::BoundedOffset);
    }
    let lw = geometry.line_words();
    match (class_lattices(a, lw), class_lattices(b, lw)) {
        (Ok(ca), Ok(cb)) => {
            let mut budget = COMPONENT_WORK_BUDGET;
            decide_class_sets(&ca, &cb, false, geometry.sets(), &mut budget)
        }
        (Err(reason), _) | (_, Err(reason)) => RelOutcome::NeedsEnumeration(reason),
    }
}

/// Reference-level [`Rule::BoundedOffset`], tried before any class
/// split: every difference `ℓ_b − ℓ_a` lies in
/// `[first_b − last_a, last_b − first_a]` of the references' whole line
/// intervals, so when that interval holds no nonzero multiple of the
/// set count the component is free. Against itself a reference passes
/// iff its lines span fewer than `S`.
fn intervals_bounded(a: &AffineRef, b: &AffineRef, geometry: &Geometry) -> bool {
    let lw = geometry.line_words();
    let (Some((a0, a1)), Some((b0, b1))) = (a.word_range(), b.word_range()) else {
        return false;
    };
    let lo = i128::from(b0 / lw) - i128::from(a1 / lw);
    let hi = i128::from(b1 / lw) - i128::from(a0 / lw);
    !has_nonzero_multiple(lo, hi, geometry.sets())
}

/// Scans every class pair of a component. `same_ref` walks unordered
/// pairs *including* the diagonal `(i, i)` — two independent iteration
/// points of one class model the within-class difference box exactly.
/// A conflict anywhere settles the component immediately; otherwise an
/// unsettled pair wins over freedom (freedom needs *every* pair free).
///
/// Pairs are grouped by dimension signature: the congruence split
/// produces many classes that differ only in base offset, so the
/// symbolic machinery ([`PairDecider`]) is built once per signature and
/// re-queried per pair. Components with at most [`MAX_CLASS_PAIRS`]
/// pairs additionally run the per-pair closers (modular sweep, mixed
/// solve, box walk); larger components stay on the O(1)-per-pair
/// shared path up to [`MAX_SHARED_PAIRS`]. Every walk step, solve
/// combination and DP table update is charged to `budget`.
fn decide_class_sets(
    ca: &[ClassLattice],
    cb: &[ClassLattice],
    same_ref: bool,
    sets: u64,
    budget: &mut u128,
) -> RelOutcome {
    let pair_count = if same_ref {
        ca.len() * (ca.len() + 1) / 2
    } else {
        ca.len().saturating_mul(cb.len())
    };
    if pair_count > MAX_SHARED_PAIRS {
        return RelOutcome::NeedsEnumeration("class-pair-overflow");
    }
    let per_pair = pair_count <= MAX_CLASS_PAIRS;
    let mut deciders: BTreeMap<(DimSignature, DimSignature), PairDecider> = BTreeMap::new();
    let mut free_rule = Rule::BoundedOffset;
    let mut unsettled: Option<RelOutcome> = None;
    for (i, a) in ca.iter().enumerate() {
        let j0 = if same_ref { i } else { 0 };
        for b in &cb[j0..] {
            let decider = deciders
                .entry((a.dims.clone(), b.dims.clone()))
                .or_insert_with(|| PairDecider::build(&a.dims, &b.dims));
            match decider.decide(a.base, b.base, sets, budget, per_pair) {
                conflict @ RelOutcome::Conflict(..) => return conflict,
                RelOutcome::Free(Rule::CosetSeparated) => free_rule = Rule::CosetSeparated,
                RelOutcome::Free(_) => {}
                unknown => unsettled = unsettled.or(Some(unknown)),
            }
        }
    }
    unsettled.unwrap_or(RelOutcome::Free(free_rule))
}

/// A class's dimension signature: `(coeff, trip)` per kept dimension.
/// Classes sharing a signature pair share one [`PairDecider`].
type DimSignature = Vec<(u64, u64)>;

/// One boxed index variable of a class pair's difference form.
struct Item {
    coeff: u64,
    width: u64,
    from_a: bool,
}

/// One merged dimension of the difference form `ℓ_b − ℓ_a`: every
/// constituent dimension sharing line stride `coeff`, folded into one
/// signed variable `y ∈ [lo, hi]` (A-side trip widths extend `lo`
/// downward, B-side widths extend `hi` upward). Every integer in the
/// range is achievable, and a value splits back into side totals as
/// `b_take = max(0, y)`, `a_take = max(0, −y)`.
struct MergedDim {
    coeff: u64,
    lo: i128,
    hi: i128,
}

impl MergedDim {
    /// Number of achievable values (`hi − lo + 1`; always ≥ 1).
    fn len(&self) -> u128 {
        u128::try_from(self.hi - self.lo + 1).unwrap_or(u128::MAX)
    }

    /// Adds this dimension's contribution of `y` to a witness.
    fn apply(&self, y: i128, line_a: &mut u64, line_b: &mut u64) {
        let b_take = u64::try_from(y.max(0)).unwrap_or(0);
        let a_take = u64::try_from((-y).max(0)).unwrap_or(0);
        *line_a += self.coeff * a_take;
        *line_b += self.coeff * b_take;
    }
}

/// The symbolic state shared by every class pair with one dimension
/// signature `(dims_a, dims_b)`. Everything derivable from the
/// dimensions alone — the interval of the difference form, the stride
/// gcd, completeness, the merged signed box, and the residue DP tables
/// — is computed once; each `(base_a, base_b)` pair then pays
/// near-constant query cost.
struct PairDecider {
    items: Vec<Item>,
    merged: Vec<MergedDim>,
    g: u64,
    complete: bool,
    /// `Σ c·(n − 1)` over A's dimensions: how far `ℓ_a` climbs above
    /// `base_a`, so `ℓ_b − ℓ_a − d` reaches down to `−span_a`.
    span_a: i128,
    /// The same sum over B's dimensions: the top of `ℓ_b − ℓ_a − d`.
    span_b: i128,
    /// `None` = not attempted; `Some(None)` = infeasible within budget.
    dp: Option<Option<ResidueDp>>,
}

impl PairDecider {
    fn build(dims_a: &[(u64, u64)], dims_b: &[(u64, u64)]) -> Self {
        let items: Vec<Item> = dims_a
            .iter()
            .map(|&(c, n)| (c, n, true))
            .chain(dims_b.iter().map(|&(c, n)| (c, n, false)))
            .map(|(coeff, trip, from_a)| Item {
                coeff,
                width: trip - 1,
                from_a,
            })
            .collect();

        let g = items.iter().fold(0u64, |g, it| gcd(g, it.coeff));
        let mut sorted: Vec<(u64, u64)> = items.iter().map(|it| (it.coeff, it.width + 1)).collect();
        sorted.sort_unstable();
        let (complete, _) = progression_span(&sorted, g);
        // Layer 2: every index ranges over its box independently, so
        // ℓ_b − ℓ_a − d spans exactly [−span_a, span_b].
        let span = |dims: &[(u64, u64)]| -> i128 {
            dims.iter()
                .map(|&(c, n)| i128::from(c) * i128::from(n - 1))
                .sum()
        };
        let (span_a, span_b) = (span(dims_a), span(dims_b));

        let mut by_coeff: BTreeMap<u64, (i128, i128)> = BTreeMap::new();
        for it in &items {
            let entry = by_coeff.entry(it.coeff).or_insert((0, 0));
            if it.from_a {
                entry.0 -= i128::from(it.width);
            } else {
                entry.1 += i128::from(it.width);
            }
        }
        let merged = by_coeff
            .into_iter()
            .map(|(coeff, (lo, hi))| MergedDim { coeff, lo, hi })
            .collect();

        Self {
            items,
            merged,
            g,
            complete,
            span_a,
            span_b,
            dp: None,
        }
    }

    /// Decides one class pair exactly: is some difference
    /// `ℓ_b(w) − ℓ_a(u)` a nonzero multiple of `sets`?
    fn decide(
        &mut self,
        base_a: u64,
        base_b: u64,
        sets: u64,
        budget: &mut u128,
        per_pair: bool,
    ) -> RelOutcome {
        let d = i128::from(base_b) - i128::from(base_a);
        let (lo, hi) = (d - self.span_a, d + self.span_b);
        if !has_nonzero_multiple(lo, hi, sets) {
            return RelOutcome::Free(Rule::BoundedOffset);
        }
        if self.g == 0 {
            // Two fixed lines whose difference (the only value in the
            // window) is a nonzero multiple of S.
            return RelOutcome::Conflict(Rule::CosetSeparated, base_a, base_b);
        }
        // Layer 3: every achievable difference is ≡ d (mod gcd(g, S)).
        let gamma = gcd(self.g, sets);
        if d.rem_euclid(i128::from(gamma)) != 0 {
            return RelOutcome::Free(Rule::CosetSeparated);
        }
        if self.complete {
            return self.decide_complete(d, gamma, sets, lo, hi, base_a, base_b);
        }
        if per_pair {
            if let Some(conflict) = single_dim_conflict(&self.items, d, sets, base_a, base_b) {
                return conflict;
            }
            if let Some(outcome) = self.mixed_solve(d, sets, base_a, base_b, budget, SOLVE_BOX_CAP)
            {
                return outcome;
            }
            if let Some(outcome) = self.box_walk(d, sets, base_a, base_b, budget) {
                return outcome;
            }
        }
        // Last resort where the DP cannot take the box: the mixed solve
        // capped only by the component budget. The DP's tables serve
        // every pair of the signature while the solve enumerates per
        // pair, so the uncapped solve never runs first.
        self.dp_decide(d, sets, base_a, base_b, budget)
            .or_else(|| self.mixed_solve(d, sets, base_a, base_b, budget, u128::MAX))
            .unwrap_or(RelOutcome::NeedsEnumeration("wide-box-above-dp-budget"))
    }

    /// Exact decision for a *complete* difference box: the achievable
    /// differences are exactly `{ d + k·g } ∩ [lo, hi]`, so CRT decides
    /// whether a nonzero multiple of `sets` is among them, and a greedy
    /// descending-coefficient walk reconstructs a witness when one is.
    #[allow(clippy::too_many_arguments)]
    fn decide_complete(
        &self,
        d: i128,
        gamma: u64,
        sets: u64,
        lo: i128,
        hi: i128,
        base_a: u64,
        base_b: u64,
    ) -> RelOutcome {
        let g = self.g;
        let items = &self.items;
        // Solve x ≡ 0 (mod S) ∧ x ≡ d (mod g): solutions are x0 + k·M
        // for M = lcm(g, S) = S·(g/γ).
        let g1 = g / gamma;
        let x0: i128 = if g1 == 1 {
            0
        } else {
            let s1 = (sets / gamma) % g1;
            let Some(inv) = mod_inverse(s1, g1) else {
                return RelOutcome::NeedsEnumeration("crt-inverse-missing");
            };
            let d1 = (d.div_euclid(i128::from(gamma))).rem_euclid(i128::from(g1));
            let t0 = mod_mul(u64::try_from(d1).unwrap_or(0), inv, g1);
            i128::from(sets) * i128::from(t0)
        };
        let m = i128::from(sets) * i128::from(g1);
        let k0 = (lo - x0).div_euclid(m) + i128::from((lo - x0).rem_euclid(m) != 0);
        let mut found = None;
        for k in k0..=k0 + 1 {
            let x = x0 + k * m;
            if x > hi {
                break;
            }
            if x != 0 {
                found = Some(x);
                break;
            }
        }
        let Some(x) = found else {
            // The coset of achievable multiples misses the window.
            return RelOutcome::Free(Rule::CosetSeparated);
        };

        // Witness: represent y = (x − d) + span_a in the shifted box
        // Σ coeff·k (k ∈ [0, width]) by greedy descending coefficients —
        // exact because the box is complete and every coefficient (and
        // y) is a multiple of g.
        let Ok(mut y) = u128::try_from(x - d + self.span_a) else {
            return RelOutcome::NeedsEnumeration("witness-shift-underflow");
        };
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_unstable_by_key(|&k| std::cmp::Reverse(items[k].coeff));
        let mut taken = vec![0u64; items.len()];
        for (pos, &k) in order.iter().enumerate() {
            let it = &items[k];
            let suffix: u128 = order[pos + 1..]
                .iter()
                .map(|&j| u128::from(items[j].coeff) * u128::from(items[j].width))
                .sum();
            let c = u128::from(it.coeff);
            let take = if y > suffix {
                (y - suffix).div_ceil(c)
            } else {
                0
            };
            if take > u128::from(it.width) {
                return RelOutcome::NeedsEnumeration("witness-greedy-overshoot");
            }
            y -= take * c;
            taken[k] = u64::try_from(take).unwrap_or(it.width);
        }
        if y != 0 {
            return RelOutcome::NeedsEnumeration("witness-greedy-residual");
        }
        // Map shifted coordinates back: A-items took width − u, B-items w.
        let mut line_a = base_a;
        let mut line_b = base_b;
        for (k, it) in items.iter().enumerate() {
            if it.from_a {
                line_a += it.coeff * (it.width - taken[k]);
            } else {
                line_b += it.coeff * taken[k];
            }
        }
        RelOutcome::Conflict(Rule::CosetSeparated, line_a, line_b)
    }

    /// Exact decision when all but the widest merged dimension span a
    /// box of at most `cap` combinations: enumerate that box and close
    /// the widest dimension with one modular solve per combination — a
    /// [`Congruence`] built once, so each solve is one multiply.
    /// Distinct `y` give distinct `x` (the stride is nonzero), so at
    /// most one congruence solution cancels to `x = 0` — checking the
    /// first two solutions in range settles each combination in O(1).
    fn mixed_solve(
        &self,
        d: i128,
        sets: u64,
        base_a: u64,
        base_b: u64,
        budget: &mut u128,
        cap: u128,
    ) -> Option<RelOutcome> {
        let widest = self
            .merged
            .iter()
            .enumerate()
            .max_by_key(|(_, md)| md.len())
            .map(|(k, _)| k)?;
        let small: u128 = self
            .merged
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != widest)
            .try_fold(1u128, |acc, (_, md)| acc.checked_mul(md.len()))?;
        if small > cap || small > *budget {
            return None;
        }
        *budget -= small;
        let s = i128::from(sets);
        let wd = &self.merged[widest];
        // The narrow dimensions with their strides mod S, odometer order.
        let others: Vec<(usize, u64)> = (0..self.merged.len())
            .filter(|&k| k != widest)
            .map(|k| (k, self.merged[k].coeff % sets))
            .collect();
        let mut ys: Vec<i128> = self.merged.iter().map(|md| md.lo).collect();
        // The exact remainder `d + Σ coeff·y` over the narrow dimensions
        // and `(−rem) mod S`, both updated as the odometer steps.
        let mut rem: i128 = d + others
            .iter()
            .map(|&(k, _)| i128::from(self.merged[k].coeff) * ys[k])
            .sum::<i128>();
        let mut target = u64::try_from((-rem).rem_euclid(s)).unwrap_or(0);
        let widest_solve = Congruence::new(wd.coeff, sets);
        loop {
            if let Some((k0, step)) = widest_solve.solve(target) {
                let (k0, step) = (i128::from(k0), i128::from(step));
                let y1 = wd.lo + (k0 - wd.lo).rem_euclid(step);
                for y in [y1, y1 + step] {
                    if y > wd.hi {
                        break;
                    }
                    let x = rem + i128::from(wd.coeff) * y;
                    if x != 0 {
                        ys[widest] = y;
                        return Some(self.witness(&ys, base_a, base_b));
                    }
                }
            }
            let mut pos = others.len();
            loop {
                if pos == 0 {
                    return Some(RelOutcome::Free(Rule::CosetSeparated));
                }
                pos -= 1;
                let (k, c) = others[pos];
                let md = &self.merged[k];
                if ys[k] < md.hi {
                    ys[k] += 1;
                    rem += i128::from(md.coeff);
                    target = if target >= c {
                        target - c
                    } else {
                        target + (sets - c)
                    };
                    break;
                }
                rem -= i128::from(md.coeff) * (md.hi - md.lo);
                ys[k] = md.lo;
                target = u64::try_from((-rem).rem_euclid(s)).unwrap_or(0);
            }
        }
    }

    /// Exhaustive walk of the merged difference box under hard caps —
    /// bounded symbolic work on index space, never a materialization
    /// of lines. Returns `None` when the box exceeds the caps.
    fn box_walk(
        &self,
        d: i128,
        sets: u64,
        base_a: u64,
        base_b: u64,
        budget: &mut u128,
    ) -> Option<RelOutcome> {
        let size: u128 = self
            .merged
            .iter()
            .try_fold(1u128, |acc, md| acc.checked_mul(md.len()))?;
        if size > BOX_WALK_PAIR_CAP || size > *budget {
            return None;
        }
        *budget -= size;
        let s = i128::from(sets);
        let mut ys: Vec<i128> = self.merged.iter().map(|md| md.lo).collect();
        loop {
            let x: i128 = d + self
                .merged
                .iter()
                .zip(&ys)
                .map(|(md, &y)| i128::from(md.coeff) * y)
                .sum::<i128>();
            if x != 0 && x.rem_euclid(s) == 0 {
                return Some(self.witness(&ys, base_a, base_b));
            }
            let mut k = self.merged.len();
            loop {
                if k == 0 {
                    return Some(RelOutcome::Free(Rule::BoundedOffset));
                }
                k -= 1;
                ys[k] += 1;
                if ys[k] <= self.merged[k].hi {
                    break;
                }
                ys[k] = self.merged[k].lo;
            }
        }
    }

    /// Decides through the shared min/max residue DP: among all
    /// combinations whose total difference is ≡ 0 (mod S), the extreme
    /// achievable values tell whether any is nonzero. The tables are
    /// built once per signature (budget-charged) and shared by every
    /// pair. A witness is backtracked only when a conflict is found: from
    /// the levels of the build when this query triggered it, by refolding
    /// otherwise. The levels are dropped with this query either way.
    fn dp_decide(
        &mut self,
        d: i128,
        sets: u64,
        base_a: u64,
        base_b: u64,
        budget: &mut u128,
    ) -> Option<RelOutcome> {
        if self.dp.is_none() {
            self.dp = Some(ResidueDp::build(&self.merged, sets, budget));
        }
        let dp = self.dp.as_mut()?.as_mut()?;
        let levels = std::mem::take(&mut dp.levels);
        let r = usize::try_from((-d).rem_euclid(i128::from(sets))).ok()?;
        let vmax = dp.max[r];
        if vmax == i128::MIN {
            return Some(RelOutcome::Free(Rule::CosetSeparated));
        }
        let vmin = dp.min[r];
        let (target, use_max) = if d + vmax != 0 {
            (vmax, true)
        } else if d + vmin != 0 {
            (vmin, false)
        } else {
            // The only residue-0 combination is the zero difference.
            return Some(RelOutcome::Free(Rule::CosetSeparated));
        };
        let ys = if levels.is_empty() {
            ResidueDp::reconstruct(&self.merged, sets, r, target, use_max)?
        } else {
            ResidueDp::backtrack(&levels, &self.merged, sets, r, target, use_max)?
        };
        Some(self.witness(&ys, base_a, base_b))
    }

    /// Builds a conflict witness from merged-dimension values.
    fn witness(&self, ys: &[i128], base_a: u64, base_b: u64) -> RelOutcome {
        let (mut line_a, mut line_b) = (base_a, base_b);
        for (md, &y) in self.merged.iter().zip(ys) {
            md.apply(y, &mut line_a, &mut line_b);
        }
        RelOutcome::Conflict(Rule::CosetSeparated, line_a, line_b)
    }
}

/// Min/max dynamic program over residues modulo the set count, for one
/// merged difference box: entry `r` holds the extreme achievable values
/// of `Σ coeff·y` among combinations with `Σ coeff·y ≡ r (mod S)`.
/// Each merged dimension folds in O(S) — independent of its width,
/// where the box walk is exponential in the dimension count — and one
/// build serves every class pair sharing the dimension signature,
/// because the base offset `d` only shifts which residue is queried.
/// Its budget charge is `Σ range·S`, the cost of folding range by
/// range, which the caps and the solver order are set against.
struct ResidueDp {
    /// `i128::MIN` = residue unreachable.
    max: Vec<i128>,
    /// `i128::MAX` = residue unreachable.
    min: Vec<i128>,
    /// The tables before each merged dimension, which a backtrack reads:
    /// filled by the build and taken by the query that triggered it, so
    /// a decider keeps only its final tables.
    levels: Vec<Tables>,
}

/// One level's `(max, min)` tables, indexed by residue.
type Tables = (Vec<i128>, Vec<i128>);

impl ResidueDp {
    fn build(merged: &[MergedDim], sets: u64, budget: &mut u128) -> Option<Self> {
        if sets > MAX_DP_SETS {
            return None;
        }
        let cost = merged.iter().fold(0u128, |acc, md| {
            acc.saturating_add(md.len().saturating_mul(u128::from(sets)))
        });
        if cost > *budget {
            return None;
        }
        *budget -= cost;
        let mut levels = Self::fold_levels(merged, sets)?;
        let (max, min) = levels.pop()?;
        Some(Self { max, min, levels })
    }

    /// The tables before each of `merged`'s dimensions and after the
    /// last: `merged.len() + 1` levels.
    fn fold_levels(merged: &[MergedDim], sets: u64) -> Option<Vec<Tables>> {
        let mut levels = vec![Self::start(usize::try_from(sets).ok()?)];
        for md in merged {
            let next = Self::fold(levels.last()?, md, sets);
            levels.push(next);
        }
        Some(levels)
    }

    /// The empty-prefix tables: value 0 at residue 0.
    fn start(s: usize) -> Tables {
        let mut max = vec![i128::MIN; s];
        let mut min = vec![i128::MAX; s];
        max[0] = 0;
        min[0] = 0;
        (max, min)
    }

    /// Folds one merged dimension into the tables in O(S).
    ///
    /// Adding `C·y` (`C = coeff`) moves residue `r` to `r + c·y` for
    /// `c = C mod S`, so the residues split into `gcd(c, S)` cycles
    /// `r_j = k + j·c` of length `S / gcd(c, S)`. Along a cycle, with
    /// `t = j − y` and `r_t` read cyclically,
    /// `new[r_j] = C·j + ext_{t ∈ [j − hi, j − lo]} (prev[r_t] − C·t)`:
    /// a sliding-window extreme ([`slide`]). Values of `y` congruent mod
    /// the cycle length land on the same residue and `C > 0`, so only the
    /// top cycle-length values of `y` can give a max and only the bottom
    /// ones a min — no window is longer than its cycle.
    fn fold(prev: &Tables, md: &MergedDim, sets: u64) -> Tables {
        let s = prev.0.len();
        let c = md.coeff % sets;
        // c = 0 gives S cycles of one residue each.
        let cycles = gcd(c, sets);
        let period = i128::from(sets / cycles);
        let (Ok(cycles), Ok(step)) = (usize::try_from(cycles), usize::try_from(c)) else {
            return (vec![i128::MIN; s], vec![i128::MAX; s]);
        };
        let len = s / cycles;
        let top = (md.lo.max(md.hi - (period - 1)), md.hi);
        let bottom = (md.lo, md.hi.min(md.lo + (period - 1)));
        // Where a pass starts on each cycle: `−yhi mod len`.
        let first = |yhi: i128| usize::try_from((-yhi).rem_euclid(period)).unwrap_or(0);
        let (top_first, bottom_first) = (first(top.1), first(bottom.1));
        let coeff = i128::from(md.coeff);
        let mut max = vec![i128::MIN; s];
        let mut min = vec![i128::MAX; s];
        let mut cycle = Vec::with_capacity(len);
        let mut window = VecDeque::with_capacity(len + 1);
        for k in 0..cycles {
            cycle.clear();
            let mut r = k;
            for _ in 0..len {
                cycle.push(r);
                r += step;
                if r >= s {
                    r -= s;
                }
            }
            slide::<true>(
                &cycle,
                &prev.0,
                &mut max,
                coeff,
                top,
                top_first,
                &mut window,
            );
            slide::<false>(
                &cycle,
                &prev.1,
                &mut min,
                coeff,
                bottom,
                bottom_first,
                &mut window,
            );
        }
        (max, min)
    }

    /// The direct fold, one update per value of `y` and residue
    /// (`Σ range·S`): the oracle the O(S) [`ResidueDp::fold`] is tested
    /// against.
    #[cfg(test)]
    fn fold_by_range(prev: &Tables, md: &MergedDim, sets: u64) -> Tables {
        let s = prev.0.len();
        let mut max = vec![i128::MIN; s];
        let mut min = vec![i128::MAX; s];
        let mut y = md.lo;
        while y <= md.hi {
            let v = i128::from(md.coeff) * y;
            let ry = residue(md.coeff, y, sets);
            for r in 0..s {
                if prev.0[r] == i128::MIN {
                    continue;
                }
                let mut nr = r + ry;
                if nr >= s {
                    nr -= s;
                }
                max[nr] = max[nr].max(prev.0[r] + v);
                min[nr] = min[nr].min(prev.1[r] + v);
            }
            y += 1;
        }
        (max, min)
    }

    /// [`ResidueDp::backtrack`] from levels refolded for it: all but
    /// the last dimension, whose output the backtrack does not read.
    fn reconstruct(
        merged: &[MergedDim],
        sets: u64,
        r_final: usize,
        target: i128,
        use_max: bool,
    ) -> Option<Vec<i128>> {
        let levels = Self::fold_levels(&merged[..merged.len().saturating_sub(1)], sets)?;
        Self::backtrack(&levels, merged, sets, r_final, target, use_max)
    }

    /// Backtracks one extreme combination achieving `target` at final
    /// residue `r_final`, reading `levels[k]`, the tables before
    /// dimension `k`. Extremality makes the backtrack exact: at each
    /// level the predecessor value must itself be that level's extreme
    /// for its residue.
    fn backtrack(
        levels: &[Tables],
        merged: &[MergedDim],
        sets: u64,
        r_final: usize,
        target: i128,
        use_max: bool,
    ) -> Option<Vec<i128>> {
        let s = usize::try_from(sets).ok()?;
        let mut ys = vec![0i128; merged.len()];
        let (mut r, mut v) = (r_final, target);
        for (k, md) in merged.iter().enumerate().rev() {
            let prev = levels.get(k)?;
            let mut found = false;
            let mut y = md.lo;
            while y <= md.hi {
                let ry = residue(md.coeff, y, sets);
                let pr = (r + s - ry) % s;
                let pv = v - i128::from(md.coeff) * y;
                let hit = if use_max {
                    prev.0[pr] == pv
                } else {
                    prev.1[pr] == pv
                };
                if hit {
                    ys[k] = y;
                    r = pr;
                    v = pv;
                    found = true;
                    break;
                }
                y += 1;
            }
            if !found {
                return None;
            }
        }
        Some(ys)
    }
}

/// One sliding-window pass of [`ResidueDp::fold`] along the residue
/// cycle `cycle`: for every `j`, `out[cycle[j]]` becomes
/// `C·j + ext_{t ∈ [j − yhi, j − ylo]} f(t)` with
/// `f(t) = prev[cycle[t mod len]] − C·t`, the extreme being the max
/// when `MAX` and the min otherwise. `first` is `−yhi mod len`, the
/// same on every cycle of one fold. `window` is a monotone deque of
/// `(t, f(t))`: each `t` enters and leaves at most once, so the pass
/// is linear in the cycle length plus the window length. Unreachable
/// residues (`i128::MIN` in a max table, `i128::MAX` in a min table)
/// never enter it, and a residue with no reachable source stays
/// unreachable.
fn slide<const MAX: bool>(
    cycle: &[usize],
    prev: &[i128],
    out: &mut [i128],
    coeff: i128,
    (ylo, yhi): (i128, i128),
    first: usize,
    window: &mut VecDeque<(i128, i128)>,
) {
    let unreachable = if MAX { i128::MIN } else { i128::MAX };
    window.clear();
    let mut t = -yhi;
    // `t mod len` as an index, stepped alongside `t`.
    let mut at = first;
    for (j, &rj) in (0i128..).zip(cycle) {
        while t <= j - ylo {
            let v = prev[cycle[at]];
            if v != unreachable {
                let f = v - coeff * t;
                // Every entry `f` ties or beats leaves the window no
                // later than `f` does, so it can never be the extreme.
                while window
                    .back()
                    .is_some_and(|&(_, b)| if MAX { b <= f } else { b >= f })
                {
                    window.pop_back();
                }
                window.push_back((t, f));
            }
            t += 1;
            at += 1;
            if at == cycle.len() {
                at = 0;
            }
        }
        while window.front().is_some_and(|&(front, _)| front < j - yhi) {
            window.pop_front();
        }
        if let Some(&(_, f)) = window.front() {
            out[rj] = coeff * j + f;
        }
    }
}

/// `coeff·y mod sets` as a table index.
fn residue(coeff: u64, y: i128, sets: u64) -> usize {
    let r = (i128::from(coeff % sets) * y).rem_euclid(i128::from(sets));
    usize::try_from(r).unwrap_or(0)
}

/// True when `[lo, hi]` contains a nonzero multiple of `s`.
fn has_nonzero_multiple(lo: i128, hi: i128, s: u64) -> bool {
    let s = i128::from(s);
    let k_lo = lo.div_euclid(s) + i128::from(lo.rem_euclid(s) != 0);
    let k_hi = hi.div_euclid(s);
    k_lo <= k_hi && !(k_lo == 0 && k_hi == 0)
}

/// Solves `a·k ≡ b (mod m)`: the smallest solution and the solution
/// stride, or `None` when unsolvable. `m ≥ 2`. The direct solve, gcd
/// and inverse per call: the oracle [`Congruence`] is tested against.
#[cfg(test)]
fn solve_congruence(a: u64, b: u64, m: u64) -> Option<(u64, u64)> {
    let a = a % m;
    let b = b % m;
    if a == 0 {
        return if b == 0 { Some((0, 1)) } else { None };
    }
    let g = gcd(a, m);
    if !b.is_multiple_of(g) {
        return None;
    }
    let m1 = m / g;
    if m1 == 1 {
        return Some((0, 1));
    }
    let inv = mod_inverse((a / g) % m1, m1)?;
    Some((mod_mul((b / g) % m1, inv, m1), m1))
}

/// `a·k ≡ b (mod m)` for one fixed `a` and `m` and many `b`: the gcd
/// and the inverse are computed once, so each [`Congruence::solve`]
/// costs one modular multiply.
struct Congruence {
    /// `gcd(a mod m, m)` (`m` itself when `a ≡ 0`): `b` must be a
    /// multiple of it.
    g: u64,
    /// `m / g`, the solution stride.
    m1: u64,
    /// The inverse of `a/g` modulo `m1`; `None` only if the inverse
    /// does not exist, when no `b` is solved.
    inv: Option<u64>,
}

impl Congruence {
    /// Precomputes the solve of `a·k ≡ · (mod m)`. `m ≥ 2`.
    fn new(a: u64, m: u64) -> Self {
        let a = a % m;
        let g = gcd(a, m);
        let m1 = m / g;
        let inv = if m1 == 1 {
            Some(0)
        } else {
            mod_inverse((a / g) % m1, m1)
        };
        Self { g, m1, inv }
    }

    /// The smallest solution of `a·k ≡ b (mod m)` and the solution
    /// stride, or `None` when unsolvable. `b < m`.
    fn solve(&self, b: u64) -> Option<(u64, u64)> {
        if !b.is_multiple_of(self.g) {
            return None;
        }
        let inv = self.inv?;
        if self.m1 == 1 {
            return Some((0, 1));
        }
        Some((mod_mul(b / self.g, inv, self.m1), self.m1))
    }
}

/// Conflict search varying one dimension at a time (all other index
/// variables at their class minimum): a single modular solve per
/// dimension, independent of trip counts — the relational analogue of
/// the Eq. 8 orbit argument.
fn single_dim_conflict(
    items: &[Item],
    d: i128,
    sets: u64,
    base_a: u64,
    base_b: u64,
) -> Option<RelOutcome> {
    let s = i128::from(sets);
    for it in items {
        // x(k) = d + c·k (B-dim) or d − c·k (A-dim); want x ≡ 0 (mod S).
        let target = if it.from_a {
            u64::try_from(d.rem_euclid(s)).ok()?
        } else {
            u64::try_from((-d).rem_euclid(s)).ok()?
        };
        let Some((k0, step)) = Congruence::new(it.coeff, sets).solve(target) else {
            continue;
        };
        for k in (k0..=it.width.min(k0.saturating_add(2 * step))).step_by(step.max(1) as usize) {
            let ck = i128::from(it.coeff) * i128::from(k);
            let x = if it.from_a { d - ck } else { d + ck };
            if x != 0 {
                let (mut line_a, mut line_b) = (base_a, base_b);
                if it.from_a {
                    line_a += it.coeff * k;
                } else {
                    line_b += it.coeff * k;
                }
                return Some(RelOutcome::Conflict(Rule::CosetSeparated, line_a, line_b));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::Term;

    fn t(coeff: i64, trip: u64) -> Term {
        Term { coeff, trip }
    }

    fn aref(base: u64, terms: Vec<Term>) -> AffineRef {
        AffineRef::new(base, terms, 0)
    }

    fn pow2(sets: u64, lw: u64) -> Geometry {
        Geometry::pow2(sets, lw).unwrap()
    }

    fn prime(c: u32, lw: u64) -> Geometry {
        Geometry::prime(c, lw).unwrap()
    }

    #[test]
    fn aligned_refs_become_one_class() {
        // Stride 16 on 8-word lines: one class, line stride 2.
        let classes = class_lattices(&aref(0, vec![t(16, 10)]), 8).unwrap();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].dims, vec![(2, 10)]);
        // Dense words (gcd ≤ L): one contiguous class.
        let classes = class_lattices(&aref(0, vec![t(3, 8)]), 8).unwrap();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].dims, vec![(1, 3)]);
    }

    #[test]
    fn unaligned_stride_splits_into_carry_free_classes() {
        // Stride 12, L = 8: P = 2, so two classes of line stride 3.
        let classes = class_lattices(&aref(0, vec![t(12, 50)]), 8).unwrap();
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].dims, vec![(3, 25)]);
        assert_eq!(classes[1].dims, vec![(3, 25)]);
        assert_eq!(classes[0].base, 0); // word 0
        assert_eq!(classes[1].base, 1); // word 12
                                        // Exactness: the union of class lattices is the real line set.
        let mut from_classes: Vec<u64> = classes
            .iter()
            .flat_map(|cl| {
                let (c, n) = cl.dims[0];
                (0..n).map(move |u| cl.base + c * u)
            })
            .collect();
        from_classes.sort_unstable();
        from_classes.dedup();
        let mut direct: Vec<u64> = (0..50).map(|i| (12 * i) / 8).collect();
        direct.sort_unstable();
        direct.dedup();
        assert_eq!(from_classes, direct);
    }

    #[test]
    fn class_split_overflow_is_reported() {
        // Three unaligned odd strides under L = 8 give 8³ = 512 > cap
        // only when a fourth multiplies in; build one that overflows.
        let r = aref(0, vec![t(3, 50), t(5, 50), t(7, 50), t(9, 50)]);
        assert_eq!(class_lattices(&r, 8), Err("class-split-overflow"));
    }

    #[test]
    fn within_decision_matches_known_lattice_case() {
        // t(12, 50) on pow2(32, 8): 2 classes, cross-class CRT finds
        // 3(u − v) ≡ 31 (mod 32) ⇒ a real self-conflict, symbolically.
        let g = pow2(32, 8);
        let out = decide_within(&aref(0, vec![t(12, 50)]), &g);
        let RelOutcome::Conflict(rule, la, lb) = out else {
            panic!("expected conflict, got {out:?}");
        };
        assert_eq!(rule, Rule::CosetSeparated);
        assert_ne!(la, lb);
        assert_eq!(g.set_of_line(la), g.set_of_line(lb));
    }

    #[test]
    fn bounded_offset_frees_far_apart_windows() {
        // Two 8-line windows 100 lines apart, S = 8192: every
        // difference is in [92, 108] — no multiple of S.
        let g = pow2(8192, 8);
        let a = aref(0, vec![t(1, 64)]);
        let b = aref(100 * 8, vec![t(1, 64)]);
        assert_eq!(
            decide_pair(&a, &b, &g),
            RelOutcome::Free(Rule::BoundedOffset)
        );
        // The reference-level interval runs before any class split: a
        // reference whose split overflows still decides when its lines
        // span fewer than S.
        let odd = aref(0, vec![t(3, 24), t(5, 24), t(7, 24), t(9, 24)]);
        assert_eq!(class_lattices(&odd, 8), Err("class-split-overflow"));
        assert_eq!(
            decide_within(&odd, &prime(13, 8)),
            RelOutcome::Free(Rule::BoundedOffset)
        );
    }

    #[test]
    fn cross_pair_conflict_is_witnessed_symbolically() {
        // The cross-stream-alias picture: identical 8-line runs exactly
        // 8·S words apart.
        let g = pow2(8192, 8);
        let a = aref(0, vec![t(1, 64)]);
        let b = aref(8 * 8192 * 8, vec![t(1, 64)]);
        let RelOutcome::Conflict(rule, la, lb) = decide_pair(&a, &b, &g) else {
            panic!("expected conflict");
        };
        assert_eq!(rule, Rule::CosetSeparated);
        assert_ne!(la, lb);
        assert_eq!(g.set_of_line(la), g.set_of_line(lb));
    }

    #[test]
    fn coset_separation_frees_disjoint_parity_classes() {
        // Step 2 lattices with bases of different parity: under a pow2
        // mapper the residues live in disjoint cosets of ⟨2⟩.
        let g = pow2(8192, 1);
        let a = aref(0, vec![t(2, 2048)]);
        let b = aref(1_000_001, vec![t(2, 2048)]);
        assert_eq!(
            decide_pair(&a, &b, &g),
            RelOutcome::Free(Rule::CosetSeparated)
        );
    }

    #[test]
    fn prime_mapper_decisions_match_enumeration() {
        // Exhaustively compare against brute-force line/set walks for a
        // spread of unaligned shapes under both mappers.
        let shapes: Vec<Vec<Term>> = vec![
            vec![t(12, 50)],
            vec![t(12, 50), t(3, 4)],
            vec![t(12, 50), t(7, 3)],
            vec![t(20, 40), t(6, 5)],
            vec![t(28, 30)],
            vec![t(44, 100)],
        ];
        for g in [pow2(32, 8), prime(5, 8), pow2(64, 4), prime(7, 4)] {
            for (shape, base) in shapes.iter().flat_map(|s| [(s, 5), (s, 7)]) {
                let r = aref(base, shape.clone());
                let expect = brute_self_conflict(&r, &g);
                match decide_within(&r, &g) {
                    RelOutcome::Free(_) => assert!(!expect, "{shape:?}@{base} {g}"),
                    RelOutcome::Conflict(_, la, lb) => {
                        assert!(expect, "{shape:?}@{base} {g}");
                        assert_ne!(la, lb);
                        assert_eq!(g.set_of_line(la), g.set_of_line(lb));
                        assert!(brute_lines(&r, &g).contains(&la));
                        assert!(brute_lines(&r, &g).contains(&lb));
                    }
                    RelOutcome::NeedsEnumeration(reason) => {
                        panic!("unsettled {shape:?}@{base} under {g}: {reason}")
                    }
                }
            }
        }
    }

    fn brute_lines(r: &AffineRef, g: &Geometry) -> Vec<u64> {
        let mut idx: Vec<u64> = vec![0; r.terms.len()];
        let mut out = Vec::new();
        loop {
            let mut w = i128::from(r.base);
            for (t, &i) in r.terms.iter().zip(&idx) {
                w += i128::from(t.coeff) * i128::from(i);
            }
            out.push(u64::try_from(w).unwrap() / g.line_words());
            let mut d = r.terms.len();
            loop {
                if d == 0 {
                    out.sort_unstable();
                    out.dedup();
                    return out;
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < r.terms[d].trip {
                    break;
                }
                idx[d] = 0;
            }
        }
    }

    fn brute_self_conflict(r: &AffineRef, g: &Geometry) -> bool {
        let lines = brute_lines(r, g);
        let mut seen = std::collections::BTreeMap::new();
        for &l in &lines {
            if let Some(&o) = seen.get(&g.set_of_line(l)) {
                if o != l {
                    return true;
                }
            }
            seen.insert(g.set_of_line(l), l);
        }
        false
    }

    #[test]
    fn mixed_solve_closes_tall_thin_difference_boxes() {
        // A non-unit unaligned leading dimension over a narrow inner
        // dimension: the merged difference box is tall (≈ 2·trip lines)
        // but thin, so the widest dimension closes by modular solve —
        // one congruence per combination of the narrow dimensions.
        let shapes: Vec<Vec<Term>> =
            vec![vec![t(8196, 1024), t(1, 32)], vec![t(8193, 512), t(2, 4)]];
        for g in [pow2(8192, 8), prime(13, 8), pow2(32, 8), prime(5, 8)] {
            for shape in &shapes {
                let r = aref(0, shape.clone());
                let expect = brute_self_conflict(&r, &g);
                match decide_within(&r, &g) {
                    RelOutcome::Free(_) => assert!(!expect, "{shape:?} {g}"),
                    RelOutcome::Conflict(_, la, lb) => {
                        assert!(expect, "{shape:?} {g}");
                        assert_ne!(la, lb);
                        assert_eq!(g.set_of_line(la), g.set_of_line(lb));
                        assert!(brute_lines(&r, &g).contains(&la));
                        assert!(brute_lines(&r, &g).contains(&lb));
                    }
                    RelOutcome::NeedsEnumeration(reason) => {
                        panic!("unsettled {shape:?} under {g}: {reason}")
                    }
                }
            }
        }
    }

    #[test]
    fn residue_dp_settles_many_wide_dimensions() {
        // Three wide dimensions: the merged box (~95³ combinations)
        // overflows the walk cap and the non-widest product (~95²)
        // overflows the solve cap, so only the residue DP can settle
        // the pair — in Σ range·S table updates.
        let aligned = vec![t(8, 48), t(16, 48), t(24, 48)];
        // Three odd strides split into 512 classes (131k pairs): the
        // per-pair closers are skipped entirely and every pair rides
        // the signature-shared DP tables.
        let split = vec![t(3, 20), t(5, 24), t(7, 24)];
        for g in [pow2(32, 8), prime(5, 8)] {
            for shape in [&aligned, &split] {
                let r = aref(9, shape.clone());
                let expect = brute_self_conflict(&r, &g);
                match decide_within(&r, &g) {
                    RelOutcome::Free(_) => assert!(!expect, "{shape:?} {g}"),
                    RelOutcome::Conflict(_, la, lb) => {
                        assert!(expect, "{shape:?} {g}");
                        assert_ne!(la, lb);
                        assert_eq!(g.set_of_line(la), g.set_of_line(lb));
                        assert!(brute_lines(&r, &g).contains(&la));
                        assert!(brute_lines(&r, &g).contains(&lb));
                    }
                    RelOutcome::NeedsEnumeration(reason) => {
                        panic!("unsettled {shape:?} under {g}: {reason}")
                    }
                }
            }
        }
    }

    #[test]
    fn negative_strides_flow_through_the_relational_domain() {
        // Downward-walking dimensions (negative coefficients) are
        // normalized at class-split time; verdicts must still match
        // the brute walk exactly.
        let shapes: Vec<Vec<Term>> = vec![
            vec![t(-12, 50)],
            vec![t(-12, 50), t(3, 4)],
            vec![t(20, 40), t(-6, 5)],
        ];
        for g in [pow2(32, 8), prime(5, 8)] {
            for shape in &shapes {
                let r = aref(100_000, shape.clone());
                let expect = brute_self_conflict(&r, &g);
                match decide_within(&r, &g) {
                    RelOutcome::Free(_) => assert!(!expect, "{shape:?} {g}"),
                    RelOutcome::Conflict(_, la, lb) => {
                        assert!(expect, "{shape:?} {g}");
                        assert_ne!(la, lb);
                        assert_eq!(g.set_of_line(la), g.set_of_line(lb));
                        assert!(brute_lines(&r, &g).contains(&la));
                        assert!(brute_lines(&r, &g).contains(&lb));
                    }
                    RelOutcome::NeedsEnumeration(reason) => {
                        panic!("unsettled {shape:?} under {g}: {reason}")
                    }
                }
            }
        }
    }

    #[test]
    fn empty_and_point_refs_are_trivially_free() {
        let g = pow2(32, 8);
        assert!(matches!(
            decide_within(&aref(0, vec![t(1, 0)]), &g),
            RelOutcome::Free(_)
        ));
        assert!(matches!(
            decide_within(&aref(123, vec![]), &g),
            RelOutcome::Free(_)
        ));
        // Two points S lines apart: a conflict of two fixed lines.
        let a = aref(0, vec![]);
        let b = aref(32 * 8, vec![]);
        assert!(matches!(
            decide_pair(&a, &b, &g),
            RelOutcome::Conflict(_, 0, 32)
        ));
    }

    /// A seeded xorshift64* stream: `next(bound)` is in `[0, bound)`.
    fn rng(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed;
        move |bound| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound
        }
    }

    #[test]
    fn cycle_fold_equals_range_fold() {
        let mut next = rng(0x0F01_D5EE);
        for sets in [31u64, 32, 127, 8191, 8192] {
            let s = usize::try_from(sets).unwrap();
            for case in 0..24u64 {
                let coeff = match case % 4 {
                    // c ≡ 0 (mod S): one cycle per residue.
                    0 => sets * (1 + next(3)),
                    // A stride sharing a power of two with S (cycles of
                    // 2..16 residues when S is a power of two).
                    1 => (sets / (2 << next(4))).max(1) * (1 + 2 * next(8)),
                    _ => 1 + next(3 * sets),
                };
                // Widths up to 60 (past every short cycle), with lo of
                // either sign.
                let lo = i128::from(next(40)) - 30;
                let md = MergedDim {
                    coeff,
                    lo,
                    hi: lo + i128::from(next(60)),
                };
                // The start tables (one reachable residue) or random
                // tables with about a quarter of the residues unreachable.
                let prev = if case % 3 == 0 {
                    ResidueDp::start(s)
                } else {
                    (0..s)
                        .map(|_| {
                            if next(4) == 0 {
                                return (i128::MIN, i128::MAX);
                            }
                            let max = i128::from(next(1 << 40)) - (1 << 39);
                            (max, max - i128::from(next(1 << 20)))
                        })
                        .unzip()
                };
                let what = format!("S={sets} coeff={coeff} y∈[{}, {}]", md.lo, md.hi);
                let once = ResidueDp::fold(&prev, &md, sets);
                assert_eq!(once, ResidueDp::fold_by_range(&prev, &md, sets), "{what}");
                // Fold again over the first fold's output.
                assert_eq!(
                    ResidueDp::fold(&once, &md, sets),
                    ResidueDp::fold_by_range(&once, &md, sets),
                    "{what}, twice"
                );
            }
        }
    }

    #[test]
    fn kept_levels_backtrack_like_a_refold() {
        let mut next = rng(0x1E_7E15);
        let (mut backtracks, mut conflicts, mut frees) = (0, 0, 0);
        for sets in [31u64, 32, 127, 8191, 8192] {
            for _ in 0..12 {
                // A random class pair of one to three dimensions a side,
                // strides sharing factors with S or not, widths past the
                // short cycles: its merged box as the decider builds it.
                let (na, nb) = (1 + next(3), next(3));
                let mut side = |n: u64| -> DimSignature {
                    (0..n)
                        .map(|_| {
                            let coeff = match next(3) {
                                0 => (sets / (1 + next(8))).max(1),
                                _ => 1 + next(3 * sets),
                            };
                            (coeff, 2 + next(60))
                        })
                        .collect()
                };
                let dims = (side(na), side(nb));
                let merged = PairDecider::build(&dims.0, &dims.1).merged;
                let mut budget = COMPONENT_WORK_BUDGET;
                let dp = ResidueDp::build(&merged, sets, &mut budget).unwrap();
                assert_eq!(dp.levels.len(), merged.len());
                let s = usize::try_from(sets).unwrap();
                for r in (0..s).step_by(s / 7 + 1) {
                    if dp.max[r] == i128::MIN {
                        continue;
                    }
                    for (target, use_max) in [(dp.max[r], true), (dp.min[r], false)] {
                        let kept =
                            ResidueDp::backtrack(&dp.levels, &merged, sets, r, target, use_max);
                        let refold = ResidueDp::reconstruct(&merged, sets, r, target, use_max);
                        assert!(kept.is_some(), "S={sets} {dims:?} r={r}");
                        assert_eq!(kept, refold, "S={sets} {dims:?} r={r}");
                        backtracks += 1;
                    }
                }
                // Through the decider: the query that builds the tables
                // backtracks from their levels and drops them, and the
                // same query again refolds to the same answer.
                for _ in 0..6 {
                    let d = i128::from(next(4 * sets)) - 2 * i128::from(sets);
                    let base_a = 1u64 << 40;
                    let base_b = base_a
                        .checked_add_signed(i64::try_from(d).unwrap())
                        .unwrap();
                    let mut decider = PairDecider::build(&dims.0, &dims.1);
                    let mut budget = COMPONENT_WORK_BUDGET;
                    let first = decider.dp_decide(d, sets, base_a, base_b, &mut budget);
                    let held = decider.dp.as_ref().and_then(Option::as_ref).unwrap();
                    assert!(held.levels.is_empty(), "S={sets} {dims:?}");
                    let again = decider.dp_decide(d, sets, base_a, base_b, &mut budget);
                    assert_eq!(first, again, "S={sets} {dims:?} d={d}");
                    match first {
                        Some(RelOutcome::Conflict(..)) => conflicts += 1,
                        Some(RelOutcome::Free(_)) => frees += 1,
                        other => panic!("S={sets} {dims:?} d={d}: {other:?}"),
                    }
                }
            }
        }
        // Both outcomes are exercised.
        assert!(backtracks > 400, "{backtracks} backtracks");
        assert!(
            conflicts > 20 && frees > 20,
            "{conflicts} conflicts, {frees} free"
        );
    }

    #[test]
    fn hoisted_congruence_equals_solve_congruence() {
        for m in 1..=64u64 {
            for a in 0..m {
                let hoisted = Congruence::new(a, m);
                for b in 0..m {
                    assert_eq!(
                        hoisted.solve(b),
                        solve_congruence(a, b, m),
                        "{a}·k ≡ {b} (mod {m})"
                    );
                }
            }
        }
        // Large moduli, built around a common factor so gcd(a, m) > 1
        // and solvable right-hand sides are frequent.
        let mut next = rng(0xC0_4E5);
        for _ in 0..4000 {
            let g = 1 + next(1 << 12);
            let m = g * (2 + next(1 << 30));
            let a = if next(2) == 0 {
                g * next(m / g)
            } else {
                next(m)
            };
            let b = if next(2) == 0 {
                g * next(m / g)
            } else {
                next(m)
            };
            assert_eq!(
                Congruence::new(a, m).solve(b),
                solve_congruence(a, b, m),
                "{a}·k ≡ {b} (mod {m})"
            );
        }
    }

    /// The class pairs one component holds and the work its decision
    /// charges against [`COMPONENT_WORK_BUDGET`], along the path
    /// [`decide_within`] and [`decide_pair`] take.
    fn component_cost(a: &AffineRef, b: &AffineRef, same_ref: bool, g: &Geometry) -> (usize, u128) {
        if intervals_bounded(a, b, g) {
            return (0, 0);
        }
        let ca = class_lattices(a, g.line_words()).unwrap();
        let cb = class_lattices(b, g.line_words()).unwrap();
        let mut budget = COMPONENT_WORK_BUDGET;
        let outcome = decide_class_sets(&ca, &cb, same_ref, g.sets(), &mut budget);
        assert!(
            !matches!(outcome, RelOutcome::NeedsEnumeration(_)),
            "{outcome:?}"
        );
        let pairs = if same_ref {
            ca.len() * (ca.len() + 1) / 2
        } else {
            ca.len() * cb.len()
        };
        (pairs, COMPONENT_WORK_BUDGET - budget)
    }

    /// [`component_cost`] summed over a nest's components: every
    /// reference against itself and every unordered reference pair.
    fn nest_cost(refs: &[AffineRef], g: &Geometry) -> (usize, u128) {
        let mut total = (0, 0);
        for (i, a) in refs.iter().enumerate() {
            for (j, b) in refs.iter().enumerate().skip(i) {
                let (pairs, work) = component_cost(a, b, i == j, g);
                total = (total.0 + pairs, total.1 + work);
            }
        }
        total
    }

    #[test]
    fn symbolic_work_does_not_grow_with_trip_counts() {
        // Eight line-aligned progressions of line stride 8, one base per
        // coset of <8> in Z_4096: 36 components of one class pair each.
        let progressions = |trip| -> Vec<AffineRef> {
            (0..8u32)
                .map(|r| AffineRef::new(u64::from(r) * 8, vec![t(64, trip)], r))
                .collect()
        };
        // At 2^8 every component is settled by its line interval.
        for (trip, cost) in [(1u64 << 8, (0, 0)), (1 << 16, (36, 0)), (1 << 24, (36, 0))] {
            let refs = progressions(trip);
            assert_eq!(nest_cost(&refs, &pow2(4096, 8)), cost, "trip {trip}");
        }
        // An unaligned leading dimension (8196 mod 8 = 4) splits into 16
        // classes, 136 pairs with the diagonal; the work charged shrinks
        // as the trips grow.
        for (trip, work) in [(1u64 << 8, 175), (1 << 12, 7), (1 << 16, 0), (1 << 24, 0)] {
            let lattice = [aref(0, vec![t(8196, trip), t(1, 32)])];
            assert_eq!(
                nest_cost(&lattice, &pow2(8192, 8)),
                (136, work),
                "trip {trip}"
            );
        }
    }
}
