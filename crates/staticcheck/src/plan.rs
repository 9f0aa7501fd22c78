//! Layer-3 prescription *planner*: the cost-ranked successor to the
//! first-hit repair search.
//!
//! Where the original prescriber walked the paper's remedies in a canned
//! order (pad, shrink, switch) and returned the first fix that verified,
//! the planner generates the **full candidate frontier** — every padding
//! `δ ∈ 1..=max_pad`, every implicated-reference trip shrink, every
//! supported geometry switch or exponent bump — checks every candidate on
//! the calling thread under the caller's [`NestBudget`]
//! (cancellation-safe: a fired budget aborts the whole plan, never a
//! truncated ranking), and ranks the survivors by cost:
//!
//! * **Padding** costs wasted words: `δ × rows`, where `rows` is the
//!   largest trip count the rewritten leading-dimension coefficient
//!   drives (each padded row carries `δ` dead words).
//! * **Trip shrinking** costs lost reuse: the fraction of the
//!   dimension's iterations dropped, `(from − to) / from`.
//! * **Geometry switches/bumps** cost hardware: the absolute set-count
//!   delta between the old and new cache (a switch is never free — the
//!   delta is floored at one set).
//!
//! The weights of those prices ([`CostWeights`]) are serialized into
//! every [`Certificate`] alongside the candidate's cost, so a stored
//! certificate is auditable and re-rankable without re-running the
//! planner. Rankings are deterministic: ties break on frontier position,
//! so serve and local runs produce identical rankings.
//!
//! [`plan_with_budget`] starts from the caller's analysis of the nest,
//! which implicates the references a shrink may touch and settles every
//! component a pad or a shrink leaves unchanged; [`plan`] analyzes the
//! nest itself first.
//!
//! Dominated candidates are pruned from the ranking (not the frontier):
//! all paddings share one repair site and their cost is strictly
//! monotone in `δ`, so only the cheapest surviving padding is ranked.
//! Geometry candidates are bounded by [`MAX_PLANNED_SETS`] — past that,
//! a "repair" is buying a vastly larger cache, not fixing the program
//! (and no differential replay could validate it).

use serde::Serialize;
use vcache_mersenne::MERSENNE_EXPONENTS;

use crate::absint::{
    analyze_nest, is_conflict_free_with_budget, is_free_among, Component, ComponentProof,
    NestAnalysis, NestBudget, NestError,
};
use crate::conflict::Geometry;
use crate::nest::LoopNest;
use crate::prescribe::{pad_nest, Certificate, Fix};

/// Largest set count a candidate geometry may have: repairs must stay
/// within plausible hardware (and replayable by the differential sim).
pub const MAX_PLANNED_SETS: u64 = 1 << 20;

/// The cost model's weights, serialized into every ranked certificate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CostWeights {
    /// Cost per wasted word of padding (`δ × rows` words).
    pub pad_word: f64,
    /// Cost of dropping an entire dimension's iterations (scaled by the
    /// fraction actually dropped).
    pub shrink_fraction: f64,
    /// Cost per set of geometry delta (hardware change).
    pub geometry_set: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        // Calibration: one wasted word is the unit; dropping a whole
        // dimension's reuse costs like 10k wasted words; changing the
        // cache costs a million per set of delta — program fixes first,
        // hardware last, exactly the paper's escalation, but now by
        // price rather than by position.
        Self {
            pad_word: 1.0,
            shrink_fraction: 10_000.0,
            geometry_set: 1_000_000.0,
        }
    }
}

impl CostWeights {
    /// Prices `fix` against the *original* nest and geometry.
    fn cost(&self, fix: &Fix, nest: &LoopNest, original_sets: u64) -> f64 {
        match *fix {
            Fix::PadLeadingDim { from, to } => {
                let delta = to.saturating_sub(from);
                // Every row walked at a multiple of the leading dimension
                // carries `delta` dead words after the pad.
                let rows = nest
                    .refs
                    .iter()
                    .flat_map(|r| r.terms.iter())
                    .filter(|t| from > 0 && t.coeff != 0 && t.coeff.unsigned_abs() % from == 0)
                    .map(|t| t.trip)
                    .max()
                    .unwrap_or(1);
                approx_f64(delta) * approx_f64(rows) * self.pad_word
            }
            Fix::ShrinkTrip { from, to, .. } => {
                if from == 0 {
                    0.0
                } else {
                    (approx_f64(from.saturating_sub(to)) / approx_f64(from)) * self.shrink_fraction
                }
            }
            Fix::BumpExponent { to, .. } => geometry_delta(original_sets, to) * self.geometry_set,
            Fix::SwitchToPrime { exponent } => {
                geometry_delta(original_sets, exponent) * self.geometry_set
            }
        }
    }
}

/// Absolute set-count delta to the Mersenne geometry `2^e − 1`, floored
/// at one (a geometry change is never free).
fn geometry_delta(original_sets: u64, exponent: u32) -> f64 {
    let new_sets = mersenne_sets(exponent);
    approx_f64(new_sets.abs_diff(original_sets).max(1))
}

/// `2^e − 1` for supported exponents (callers pre-filter `e < 63`).
fn mersenne_sets(exponent: u32) -> u64 {
    1u64.checked_shl(exponent).map_or(u64::MAX, |p| p - 1)
}

/// Trip counts and padding deltas are far below 2^53; the cast to f64
/// is exact in practice and merely approximate past that.
#[allow(clippy::cast_precision_loss)]
fn approx_f64(v: u64) -> f64 {
    v as f64
}

/// The ranked outcome of planning one interfering nest.
#[derive(Debug, Clone, Serialize)]
pub struct Plan {
    /// Name of the planned nest.
    pub nest: String,
    /// Tag of the original (interfering) geometry.
    pub original_geometry: &'static str,
    /// Set count of the original geometry.
    pub original_sets: u64,
    /// The weights every candidate was priced under.
    pub weights: CostWeights,
    /// Size of the candidate frontier.
    pub candidates: u64,
    /// Candidates checked: always `candidates`, because a cancelled plan
    /// returns no plan at all.
    pub analyzed: u64,
    /// Surviving certificates, cheapest first. Every entry re-verifies
    /// and carries its cost and the model weights.
    pub ranked: Vec<Certificate>,
}

impl Plan {
    /// The cheapest surviving repair, if any.
    #[must_use]
    pub fn best(&self) -> Option<&Certificate> {
        self.ranked.first()
    }

    /// Consumes the plan, returning the cheapest surviving repair.
    #[must_use]
    pub fn into_best(self) -> Option<Certificate> {
        self.ranked.into_iter().next()
    }
}

/// One frontier entry. `Shrink` carries the repair *site*; the verified
/// trip bound is discovered during evaluation (binary search), so the
/// frontier stays polynomial while still covering every site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Candidate {
    Pad { ld: u64, delta: u64 },
    Shrink { ref_index: usize, dim: usize },
    Switch { exponent: u32 },
    Bump { from: u32, to: u32 },
}

impl Candidate {
    /// Stable display label, passed to the planner's observer (the
    /// daemon names one child span of `prescribe` after it).
    fn label(self) -> String {
        match self {
            Self::Pad { delta, .. } => format!("pad+{delta}"),
            Self::Shrink { ref_index, dim } => format!("shrink-r{ref_index}d{dim}"),
            Self::Switch { exponent } => format!("switch-2^{exponent}"),
            Self::Bump { to, .. } => format!("bump-2^{to}"),
        }
    }
}

/// A candidate check's verdict, with analysis failures counted as "not
/// free" so the plan skips the candidate — except cancellation, which
/// aborts the whole plan.
fn free_or_skip(checked: Result<bool, NestError>) -> Result<bool, NestError> {
    match checked {
        Err(NestError::Cancelled) => Err(NestError::Cancelled),
        checked => Ok(checked.unwrap_or(false)),
    }
}

/// What the caller's analysis of the original nest tells the planner.
struct Triage<'a> {
    /// The references implicated in any conflict, in index order.
    implicated: Vec<usize>,
    /// Every component's outcome under the original geometry, when the
    /// analysis decided them all symbolically; `None` after a failure or
    /// an enumeration fallback, and then no candidate reuses them.
    proofs: Option<&'a [ComponentProof]>,
}

/// Triage of the original nest from its analysis: `None` when it is
/// already conflict-free. A failed analysis (`None`) implicates every
/// reference.
fn triage<'a>(nest: &LoopNest, analysis: Option<&'a NestAnalysis>) -> Option<Triage<'a>> {
    let Some(a) = analysis else {
        return Some(Triage {
            implicated: (0..nest.refs.len()).collect(),
            proofs: None,
        });
    };
    if a.verdict.is_conflict_free() {
        return None;
    }
    let mut implicated: Vec<usize> = a
        .proofs
        .iter()
        .filter(|p| !p.free)
        .flat_map(|p| match p.component {
            Component::Within { r } => vec![r],
            Component::Pair { a, b } => vec![a, b],
        })
        .collect();
    implicated.sort_unstable();
    implicated.dedup();
    let proofs = a.fallback_reasons.is_empty().then_some(a.proofs.as_slice());
    Some(Triage { implicated, proofs })
}

/// True when `fixed`, an edit of `nest` under the original geometry, is
/// conflict-free. A component whose references the edit left unchanged
/// keeps its triage outcome, because an outcome depends only on the
/// references and the geometry: if one conflicted, the candidate fails
/// without an analysis, and otherwise only the components with a changed
/// reference are decided.
fn is_free_edit(
    nest: &LoopNest,
    fixed: &LoopNest,
    geometry: &Geometry,
    triage: &Triage<'_>,
    budget: &NestBudget<'_>,
) -> Result<bool, NestError> {
    // Without reusable outcomes, every reference counts as changed.
    let changed: Vec<bool> = nest
        .refs
        .iter()
        .zip(&fixed.refs)
        .map(|(before, after)| triage.proofs.is_none() || before != after)
        .collect();
    let touched = |component: Component| match component {
        Component::Within { r } => changed[r],
        Component::Pair { a, b } => changed[a] || changed[b],
    };
    let known = triage.proofs.into_iter().flatten();
    if known.filter(|p| !touched(p.component)).any(|p| !p.free) {
        return Ok(false);
    }
    free_or_skip(is_free_among(fixed, geometry, budget, &touched))
}

/// Generates the full candidate frontier. Pure — no analysis runs here;
/// `implicated` comes from the caller's triage of the original nest.
fn frontier(
    nest: &LoopNest,
    geometry: &Geometry,
    max_pad: u64,
    implicated: &[usize],
) -> Vec<Candidate> {
    let mut out = Vec::new();
    if let Some(ld) = nest.leading_dim {
        for delta in 1..=max_pad {
            // Only paddings that rewrite at least one coefficient are
            // candidates; the rest are no-ops by construction.
            if pad_nest(nest, ld, delta).is_some() {
                out.push(Candidate::Pad { ld, delta });
            }
        }
    }
    for &ref_index in implicated {
        let Some(r) = nest.refs.get(ref_index) else {
            continue;
        };
        for (dim, t) in r.terms.iter().enumerate() {
            if t.trip >= 2 {
                out.push(Candidate::Shrink { ref_index, dim });
            }
        }
    }
    match geometry {
        Geometry::Pow2 { sets, .. } => {
            for &e in MERSENNE_EXPONENTS.iter() {
                if e >= 63 {
                    continue;
                }
                let new_sets = mersenne_sets(e);
                if new_sets + 1 >= *sets && new_sets <= MAX_PLANNED_SETS {
                    out.push(Candidate::Switch { exponent: e });
                }
            }
        }
        Geometry::Prime { modulus, .. } => {
            let from = modulus.exponent();
            for &e in MERSENNE_EXPONENTS.iter() {
                if e > from && e < 63 && mersenne_sets(e) <= MAX_PLANNED_SETS {
                    out.push(Candidate::Bump { from, to: e });
                }
            }
        }
    }
    out
}

fn with_trip(nest: &LoopNest, ref_index: usize, dim: usize, trip: u64) -> LoopNest {
    let mut fixed = nest.clone();
    fixed.refs[ref_index].terms[dim].trip = trip;
    fixed
}

/// The certificate for `fix`, priced at the default weights.
fn certificate(
    nest: &LoopNest,
    geometry: &Geometry,
    fix: Fix,
    fixed_nest: LoopNest,
    fixed_geometry: Geometry,
) -> Certificate {
    let weights = CostWeights::default();
    Certificate {
        nest: nest.name.clone(),
        original_geometry: geometry.kind(),
        original_sets: geometry.sets(),
        fix,
        fixed_nest,
        fixed_geometry,
        cost: weights.cost(&fix, nest, geometry.sets()),
        weights,
    }
}

/// Analyzes one candidate to a verified certificate (or `None` when the
/// candidate does not render the nest conflict-free). A pad or a shrink
/// reuses the triage's outcomes ([`is_free_edit`]); a geometry change
/// touches every component, so it is analyzed afresh.
///
/// # Errors
///
/// Only [`NestError::Cancelled`]; other analysis failures skip the
/// candidate.
fn evaluate(
    nest: &LoopNest,
    geometry: &Geometry,
    candidate: Candidate,
    triage: &Triage<'_>,
    budget: &NestBudget<'_>,
) -> Result<Option<Certificate>, NestError> {
    let is_free = |fixed: &LoopNest| is_free_edit(nest, fixed, geometry, triage, budget);
    let is_free_under = |g: &Geometry| free_or_skip(is_conflict_free_with_budget(nest, g, budget));
    match candidate {
        Candidate::Pad { ld, delta } => {
            let Some(fixed) = pad_nest(nest, ld, delta) else {
                return Ok(None);
            };
            if !is_free(&fixed)? {
                return Ok(None);
            }
            let fix = Fix::PadLeadingDim {
                from: ld,
                to: ld + delta,
            };
            Ok(Some(certificate(nest, geometry, fix, fixed, *geometry)))
        }
        Candidate::Shrink { ref_index, dim } => {
            let from = nest.refs[ref_index].terms[dim].trip;
            if from < 2 {
                return Ok(None);
            }
            // A trip of 1 neutralizes the dimension entirely; if even
            // that does not help, this site is not the problem.
            if !is_free(&with_trip(nest, ref_index, dim, 1))? {
                return Ok(None);
            }
            // Binary search the largest conflict-free trip in
            // [1, from − 1]. Freedom need not be monotone in the trip
            // count, so `lo` only ever advances to *verified* values —
            // the result is always sound, merely maximal-within-search.
            let (mut lo, mut hi) = (1u64, from - 1);
            while lo < hi {
                let mid = lo + (hi - lo).div_ceil(2);
                if is_free(&with_trip(nest, ref_index, dim, mid))? {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            let fix = Fix::ShrinkTrip {
                ref_index,
                dim,
                from,
                to: lo,
            };
            let fixed = with_trip(nest, ref_index, dim, lo);
            Ok(Some(certificate(nest, geometry, fix, fixed, *geometry)))
        }
        Candidate::Switch { exponent } => {
            let Ok(candidate_geometry) = Geometry::prime(exponent, geometry.line_words()) else {
                return Ok(None);
            };
            if !is_free_under(&candidate_geometry)? {
                return Ok(None);
            }
            let fix = Fix::SwitchToPrime { exponent };
            Ok(Some(certificate(
                nest,
                geometry,
                fix,
                nest.clone(),
                candidate_geometry,
            )))
        }
        Candidate::Bump { from, to } => {
            let Ok(candidate_geometry) = Geometry::prime(to, geometry.line_words()) else {
                return Ok(None);
            };
            if !is_free_under(&candidate_geometry)? {
                return Ok(None);
            }
            let fix = Fix::BumpExponent { from, to };
            Ok(Some(certificate(
                nest,
                geometry,
                fix,
                nest.clone(),
                candidate_geometry,
            )))
        }
    }
}

/// Sorts the survivors, which arrive in frontier order, cheapest-first
/// (a stable sort, so ties keep frontier order), prunes dominated
/// paddings, and assembles the [`Plan`]. Deterministic: a pure function
/// of the survivor list.
fn finish_plan(
    nest: &LoopNest,
    geometry: &Geometry,
    candidates: u64,
    mut survivors: Vec<Certificate>,
) -> Plan {
    survivors.sort_by(|a, b| a.cost.total_cmp(&b.cost));
    // All paddings repair the same site and their cost is strictly
    // monotone in δ: everything after the cheapest survivor is
    // dominated, so only the cheapest is ranked.
    let mut seen_pad = false;
    survivors.retain(|cert| match cert.fix {
        Fix::PadLeadingDim { .. } => !std::mem::replace(&mut seen_pad, true),
        _ => true,
    });
    Plan {
        nest: nest.name.clone(),
        original_geometry: geometry.kind(),
        original_sets: geometry.sets(),
        weights: CostWeights::default(),
        candidates,
        analyzed: candidates,
        ranked: survivors,
    }
}

/// Plans repairs for `nest` under `geometry` with the default budget,
/// analyzing the nest first. Returns `None` when the nest is already
/// conflict-free; an interfering nest yields a [`Plan`] whose `ranked`
/// list may still be empty when nothing in the frontier works.
#[must_use]
pub fn plan(nest: &LoopNest, geometry: &Geometry, max_pad: u64) -> Option<Plan> {
    let analysis = analyze_nest(nest, geometry).ok();
    let budget = NestBudget::default();
    plan_with_budget(nest, geometry, analysis.as_ref(), max_pad, &budget, None).unwrap_or(None)
}

/// Plans repairs for `nest` under `geometry`, on the calling thread, from
/// the caller's `analysis` of that nest under that geometry. `None` stands
/// for an analysis that failed: every reference is then implicated and no
/// component outcome is reused. Returns `Ok(None)` when the analysis
/// found the nest conflict-free.
///
/// Every candidate check polls `budget`, so a deadline-enforcing caller
/// can abandon the whole plan cooperatively. `observer`, when given, sees
/// `(label, true)` before each candidate's check and `(label, false)`
/// after it; the candidate a cancellation interrupts gets no closing
/// call, so the caller closes it with the plan's own outcome.
///
/// # Errors
///
/// [`NestError::Cancelled`] when the budget's callback fires — the plan
/// is abandoned whole, never returned truncated. All other analysis
/// failures merely skip the offending candidate.
// Clippy scores the elided lifetime in the observer's `&str` as a complex
// type; a one-use alias would only hide the signature callers write.
#[allow(clippy::type_complexity)]
pub fn plan_with_budget(
    nest: &LoopNest,
    geometry: &Geometry,
    analysis: Option<&NestAnalysis>,
    max_pad: u64,
    budget: &NestBudget<'_>,
    observer: Option<&dyn Fn(&str, bool)>,
) -> Result<Option<Plan>, NestError> {
    let Some(triage) = triage(nest, analysis) else {
        return Ok(None);
    };
    let cands = frontier(nest, geometry, max_pad, &triage.implicated);
    let mut survivors = Vec::new();
    for &c in &cands {
        let label = observer.map(|obs| {
            let label = c.label();
            obs(&label, true);
            label
        });
        survivors.extend(evaluate(nest, geometry, c, &triage, budget)?);
        if let (Some(obs), Some(label)) = (observer, &label) {
            obs(label, false);
        }
    }
    Ok(Some(finish_plan(
        nest,
        geometry,
        cands.len() as u64,
        survivors,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::analyze_nest_with_budget;
    use crate::nest::{AffineRef, Term};
    use crate::prescribe::DEFAULT_MAX_PAD;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn term(coeff: i64, trip: u64) -> Term {
        Term { coeff, trip }
    }

    /// Stride 4096 words (line stride 512, orbit 16) over 8191
    /// iterations: shrink and switch both work, padding is unavailable.
    fn stride_nest() -> LoopNest {
        LoopNest::new(
            "pow2-stride",
            vec![AffineRef::new(0, vec![term(4096, 8191)], 0)],
        )
    }

    fn stride_geometry() -> Geometry {
        Geometry::pow2(8192, 8).unwrap()
    }

    #[test]
    fn free_nests_have_no_plan() {
        let n = LoopNest::new("free", vec![AffineRef::new(0, vec![term(1, 64)], 0)]);
        assert!(plan(&n, &stride_geometry(), DEFAULT_MAX_PAD).is_none());
    }

    #[test]
    fn ranking_is_cheapest_first_and_multi_kind() {
        let p = plan(&stride_nest(), &stride_geometry(), DEFAULT_MAX_PAD).unwrap();
        assert!(p.ranked.len() >= 2, "{:?}", p.ranked);
        // Costs ascend.
        for pair in p.ranked.windows(2) {
            assert!(pair[0].cost <= pair[1].cost);
        }
        // The cheap program fix outranks every hardware fix.
        assert!(matches!(p.ranked[0].fix, Fix::ShrinkTrip { .. }));
        assert!(p
            .ranked
            .iter()
            .any(|c| matches!(c.fix, Fix::SwitchToPrime { .. })));
        // Every survivor verifies and carries the pricing context.
        for c in &p.ranked {
            assert!(c.verify(), "{} does not verify", c.fix);
            assert_eq!(c.weights, CostWeights::default());
            assert!(c.cost > 0.0);
        }
    }

    #[test]
    fn frontier_counts_are_reported() {
        let p = plan(&stride_nest(), &stride_geometry(), DEFAULT_MAX_PAD).unwrap();
        // No leading dim: frontier = 1 shrink site + the supported
        // switches (2^13, 2^17, 2^19 within MAX_PLANNED_SETS).
        assert_eq!(p.candidates, 4, "{p:?}");
        assert_eq!(p.analyzed, p.candidates);
        assert_eq!(p.original_sets, 8192);
    }

    #[test]
    fn dominated_paddings_are_pruned_from_the_ranking() {
        // Leading dimension 32 on a 32-set cache: every δ with
        // gcd(32, δ) ≤ 2 works, so dozens of paddings survive — the
        // ranking must keep only the cheapest.
        let mut n = LoopNest::new("pad-family", vec![AffineRef::new(0, vec![term(32, 32)], 0)]);
        n.leading_dim = Some(32);
        let g = Geometry::pow2(32, 1).unwrap();
        let p = plan(&n, &g, DEFAULT_MAX_PAD).unwrap();
        let pads: Vec<&Certificate> = p
            .ranked
            .iter()
            .filter(|c| matches!(c.fix, Fix::PadLeadingDim { .. }))
            .collect();
        assert_eq!(pads.len(), 1, "{:?}", p.ranked);
        assert_eq!(
            pads[0].fix,
            Fix::PadLeadingDim { from: 32, to: 33 },
            "cheapest surviving δ is 1"
        );
    }

    #[test]
    fn rankings_are_identical_across_runs() {
        let a = plan(&stride_nest(), &stride_geometry(), DEFAULT_MAX_PAD).unwrap();
        let b = plan(&stride_nest(), &stride_geometry(), DEFAULT_MAX_PAD).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn cancellation_mid_frontier_aborts_the_whole_plan() {
        // A nest whose analyses really enumerate (four odd strides
        // overflow the relational class split), so each check polls per
        // component and per enumeration quantum. Let the first candidate
        // through, then fire at the next poll, inside the second: the
        // plan must surface Cancelled, never a truncated ranking
        // presented as complete, and the interrupted candidate stays open
        // for the caller to close.
        let terms = [3, 5, 7, 9].map(|coeff| term(coeff, 24));
        let nest = LoopNest::new("odd-strides", vec![AffineRef::new(0, terms.to_vec(), 0)]);
        let geometry = Geometry::prime(5, 8).unwrap();
        let analysis = analyze_nest(&nest, &geometry).unwrap();
        assert!(analysis.enumerated_lines > 0);
        let events: RefCell<Vec<(String, bool)>> = RefCell::new(Vec::new());
        let obs = |label: &str, begin: bool| events.borrow_mut().push((label.to_owned(), begin));
        let hook = || events.borrow().iter().any(|(_, begin)| !begin);
        let err = plan_with_budget(
            &nest,
            &geometry,
            Some(&analysis),
            DEFAULT_MAX_PAD,
            &NestBudget::with_cancel(&hook),
            Some(&obs),
        )
        .err();
        assert_eq!(err, Some(NestError::Cancelled));
        let events = events.into_inner();
        let labels: Vec<(&str, bool)> = events.iter().map(|(l, b)| (l.as_str(), *b)).collect();
        assert_eq!(
            labels,
            [
                ("shrink-r0d0", true),
                ("shrink-r0d0", false),
                ("shrink-r0d1", true)
            ]
        );
    }

    #[test]
    fn fired_budget_cancels_a_symbolic_plan() {
        // The stride nest decides without enumerating, so only the
        // per-component poll can see a budget that has already fired.
        let analysis = analyze_nest(&stride_nest(), &stride_geometry()).unwrap();
        let hook = || true;
        let err = plan_with_budget(
            &stride_nest(),
            &stride_geometry(),
            Some(&analysis),
            DEFAULT_MAX_PAD,
            &NestBudget::with_cancel(&hook),
            None,
        )
        .err();
        assert_eq!(err, Some(NestError::Cancelled));
    }

    #[test]
    fn observer_brackets_every_candidate() {
        let events: RefCell<Vec<(String, bool)>> = RefCell::new(Vec::new());
        let obs = |label: &str, begin: bool| events.borrow_mut().push((label.to_owned(), begin));
        let analysis = analyze_nest(&stride_nest(), &stride_geometry()).unwrap();
        let p = plan_with_budget(
            &stride_nest(),
            &stride_geometry(),
            Some(&analysis),
            DEFAULT_MAX_PAD,
            &NestBudget::default(),
            Some(&obs),
        )
        .unwrap()
        .unwrap();
        // One bracket per candidate, in frontier order, and the same plan
        // as without an observer.
        let expected: Vec<(String, bool)> =
            ["shrink-r0d0", "switch-2^13", "switch-2^17", "switch-2^19"]
                .iter()
                .flat_map(|label| [(label.to_string(), true), (label.to_string(), false)])
                .collect();
        assert_eq!(events.into_inner(), expected);
        assert_eq!(p.analyzed, 4);
        let unobserved = plan(&stride_nest(), &stride_geometry(), DEFAULT_MAX_PAD).unwrap();
        assert_eq!(
            serde_json::to_string(&p).unwrap(),
            serde_json::to_string(&unobserved).unwrap()
        );
    }

    #[test]
    fn reused_triage_answers_like_a_fresh_check() {
        use crate::{battery, nestsuite, suite::EXPONENT};
        // The battery, and the canonical suite for nests with a leading
        // dimension, so that pads are checked too.
        let mut subjects: Vec<(LoopNest, u32, u64)> = battery::cases(0x5EED, 200)
            .into_iter()
            .map(|case| (case.nest, case.exponent, case.line_words))
            .collect();
        subjects.extend(
            nestsuite::cases()
                .into_iter()
                .map(|case| (case.nest, EXPONENT, case.line_words)),
        );
        let budget = NestBudget::default();
        let (mut checks, mut free, mut reused, mut pads) = (0, 0, 0, 0);
        for (nest, exponent, line_words) in &subjects {
            let pow2 = Geometry::pow2(1 << exponent, *line_words).unwrap();
            let prime = Geometry::prime(*exponent, *line_words).unwrap();
            for geometry in [pow2, prime] {
                let analysis = analyze_nest_with_budget(nest, &geometry, &budget).ok();
                let Some(triage) = triage(nest, analysis.as_ref()) else {
                    continue;
                };
                reused += usize::from(triage.proofs.is_some());
                // Each pad and shrink nest the planner checks, the shrink
                // search driven by the fresh answers.
                let mut check = |fixed: &LoopNest| {
                    let fresh =
                        free_or_skip(is_conflict_free_with_budget(fixed, &geometry, &budget));
                    let reuse = is_free_edit(nest, fixed, &geometry, &triage, &budget);
                    assert_eq!(reuse, fresh, "{} under {geometry}: {fixed:?}", nest.name);
                    checks += 1;
                    free += usize::from(fresh == Ok(true));
                    fresh.unwrap()
                };
                for c in frontier(nest, &geometry, DEFAULT_MAX_PAD, &triage.implicated) {
                    match c {
                        Candidate::Pad { ld, delta } => {
                            check(&pad_nest(nest, ld, delta).unwrap());
                            pads += 1;
                        }
                        Candidate::Shrink { ref_index, dim } => {
                            let from = nest.refs[ref_index].terms[dim].trip;
                            if !check(&with_trip(nest, ref_index, dim, 1)) {
                                continue;
                            }
                            let (mut lo, mut hi) = (1u64, from - 1);
                            while lo < hi {
                                let mid = lo + (hi - lo).div_ceil(2);
                                if check(&with_trip(nest, ref_index, dim, mid)) {
                                    lo = mid;
                                } else {
                                    hi = mid - 1;
                                }
                            }
                        }
                        Candidate::Switch { .. } | Candidate::Bump { .. } => {}
                    }
                }
            }
        }
        // Both answers are exercised, and most triages are reusable.
        assert!(free > 100 && checks - free > 100, "{free} of {checks} free");
        assert!(
            reused > 100 && pads > 100,
            "{reused} reusable triages, {pads} pads"
        );
    }

    #[test]
    fn each_component_is_decided_once() {
        // Under 32 sets: reference 0 (lines 0, 8, …, 56) collides with
        // itself, references 1 and 2 (two lines each, 320 apart) collide
        // with each other, and every other component is free. Each of the
        // three shrinks leaves a conflicting component untouched, so none
        // is decided again. The caller's analysis decided all six
        // components; what the plan decides, one poll each: four under
        // 2^5 − 1 sets (up to the first conflict, pair 0–1) and six under
        // each of the other switches.
        let refs = vec![
            AffineRef::new(0, vec![term(64, 8)], 0),
            AffineRef::new(8 * 1001, vec![term(1, 16)], 1),
            AffineRef::new(8 * 1321, vec![term(1, 16)], 2),
        ];
        let nest = LoopNest::new("three-refs", refs);
        let geometry = Geometry::pow2(32, 8).unwrap();
        let analysis = analyze_nest(&nest, &geometry).unwrap();
        let polls = AtomicUsize::new(0);
        let count = || {
            polls.fetch_add(1, Ordering::Relaxed);
            false
        };
        let p = plan_with_budget(
            &nest,
            &geometry,
            Some(&analysis),
            DEFAULT_MAX_PAD,
            &NestBudget::with_cancel(&count),
            None,
        )
        .unwrap()
        .unwrap();
        assert_eq!((p.candidates, p.analyzed), (8, 8), "{p:?}");
        assert_eq!(polls.load(Ordering::Relaxed), 4 + 4 * 6, "{p:?}");
    }

    #[test]
    fn plans_serialize_with_weights_and_costs() {
        let p = plan(&stride_nest(), &stride_geometry(), DEFAULT_MAX_PAD).unwrap();
        let json = serde_json::to_string(&p).unwrap();
        assert!(json.contains("\"weights\""), "{json}");
        assert!(json.contains("\"shrink_fraction\""), "{json}");
        assert!(json.contains("\"cost\""), "{json}");
        assert!(json.contains("\"ranked\""), "{json}");
    }
}
