//! Layer-3 prescription *planner*: the cost-ranked successor to the
//! first-hit repair search.
//!
//! Where the original prescriber walked the paper's remedies in a canned
//! order (pad, shrink, switch) and returned the first fix that verified,
//! the planner generates the **full candidate frontier** — every padding
//! `δ ∈ 1..=max_pad`, every implicated-reference trip shrink, every
//! supported geometry switch or exponent bump — analyzes every candidate
//! under the caller's [`NestBudget`] (cancellation-safe: a fired budget
//! aborts the whole plan, never a truncated ranking), and ranks the
//! survivors under an explicit [`CostModel`]:
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
//! The model's weights ([`CostWeights`]) are serialized into every
//! [`Certificate`] alongside the candidate's cost, so a stored
//! certificate is auditable and re-rankable without re-running the
//! planner. Rankings are deterministic: ties break on frontier position,
//! and the parallel evaluator ([`plan_parallel`]) collects results by
//! candidate index, so serve and local runs produce identical rankings.
//!
//! Dominated candidates are pruned from the ranking (not the frontier):
//! all paddings share one repair site and their cost is strictly
//! monotone in `δ`, so only the cheapest surviving padding is ranked.
//! Geometry candidates are bounded by [`MAX_PLANNED_SETS`] — past that,
//! a "repair" is buying a vastly larger cache, not fixing the program
//! (and no differential replay could validate it).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use serde::Serialize;
use vcache_mersenne::MERSENNE_EXPONENTS;

use crate::absint::{analyze_nest_with_budget, NestBudget, NestError, NestVerdict};
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

/// The explicit cost model: weights plus the per-fix pricing rules.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModel {
    /// The weights applied by [`CostModel::cost`].
    pub weights: CostWeights,
}

impl CostModel {
    /// Prices `fix` against the *original* nest and geometry.
    #[must_use]
    pub fn cost(&self, fix: &Fix, nest: &LoopNest, original_sets: u64) -> f64 {
        let w = &self.weights;
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
                approx_f64(delta) * approx_f64(rows) * w.pad_word
            }
            Fix::ShrinkTrip { from, to, .. } => {
                if from == 0 {
                    0.0
                } else {
                    (approx_f64(from.saturating_sub(to)) / approx_f64(from)) * w.shrink_fraction
                }
            }
            Fix::BumpExponent { to, .. } => geometry_delta(original_sets, to) * w.geometry_set,
            Fix::SwitchToPrime { exponent } => {
                geometry_delta(original_sets, exponent) * w.geometry_set
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
    /// Candidates actually analyzed (equals `candidates` unless the
    /// plan was cancelled, in which case no plan is returned at all).
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
    /// Stable display label (used for per-candidate spans on the
    /// daemon's batch path).
    fn label(self) -> String {
        match self {
            Self::Pad { delta, .. } => format!("pad+{delta}"),
            Self::Shrink { ref_index, dim } => format!("shrink-r{ref_index}d{dim}"),
            Self::Switch { exponent } => format!("switch-2^{exponent}"),
            Self::Bump { to, .. } => format!("bump-2^{to}"),
        }
    }
}

/// True when the nest is conflict-free under `geometry`; analysis
/// failures count as "not free" so the plan skips the candidate —
/// except cancellation, which aborts the whole plan.
fn is_free(
    nest: &LoopNest,
    geometry: &Geometry,
    budget: &NestBudget<'_>,
) -> Result<bool, NestError> {
    match analyze_nest_with_budget(nest, geometry, budget) {
        Ok(a) => Ok(a.verdict == NestVerdict::ConflictFree),
        Err(NestError::Cancelled) => Err(NestError::Cancelled),
        Err(_) => Ok(false),
    }
}

/// References implicated in any conflict of the analysis, in index
/// order; if the analysis itself fails, every reference is a candidate.
fn conflicting_refs(
    nest: &LoopNest,
    geometry: &Geometry,
    budget: &NestBudget<'_>,
) -> Result<Vec<usize>, NestError> {
    match analyze_nest_with_budget(nest, geometry, budget) {
        Ok(a) => {
            let mut v: Vec<usize> = a
                .proofs
                .iter()
                .filter(|p| !p.free)
                .flat_map(|p| match p.component {
                    crate::absint::Component::Within { r } => vec![r],
                    crate::absint::Component::Pair { a, b } => vec![a, b],
                })
                .collect();
            v.sort_unstable();
            v.dedup();
            Ok(v)
        }
        Err(NestError::Cancelled) => Err(NestError::Cancelled),
        Err(_) => Ok((0..nest.refs.len()).collect()),
    }
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

fn certificate(
    nest: &LoopNest,
    geometry: &Geometry,
    fix: Fix,
    fixed_nest: LoopNest,
    fixed_geometry: Geometry,
) -> Certificate {
    Certificate {
        nest: nest.name.clone(),
        original_geometry: geometry.kind(),
        original_sets: geometry.sets(),
        fix,
        fixed_nest,
        fixed_geometry,
        // Priced during ranking; a certificate never leaves the planner
        // with these placeholders.
        cost: 0.0,
        weights: CostWeights::default(),
    }
}

/// Analyzes one candidate to a verified certificate (or `None` when the
/// candidate does not render the nest conflict-free).
///
/// # Errors
///
/// Only [`NestError::Cancelled`]; other analysis failures skip the
/// candidate.
fn evaluate(
    nest: &LoopNest,
    geometry: &Geometry,
    candidate: Candidate,
    budget: &NestBudget<'_>,
) -> Result<Option<Certificate>, NestError> {
    match candidate {
        Candidate::Pad { ld, delta } => {
            let Some(fixed) = pad_nest(nest, ld, delta) else {
                return Ok(None);
            };
            if !is_free(&fixed, geometry, budget)? {
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
            if !is_free(&with_trip(nest, ref_index, dim, 1), geometry, budget)? {
                return Ok(None);
            }
            // Binary search the largest conflict-free trip in
            // [1, from − 1]. Freedom need not be monotone in the trip
            // count, so `lo` only ever advances to *verified* values —
            // the result is always sound, merely maximal-within-search.
            let (mut lo, mut hi) = (1u64, from - 1);
            while lo < hi {
                let mid = lo + (hi - lo).div_ceil(2);
                if is_free(&with_trip(nest, ref_index, dim, mid), geometry, budget)? {
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
            if !is_free(nest, &candidate_geometry, budget)? {
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
            if !is_free(nest, &candidate_geometry, budget)? {
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

/// Prices the survivors, sorts them cheapest-first (ties break on
/// frontier position), prunes dominated paddings, and assembles the
/// [`Plan`]. Deterministic: a pure function of the survivor set.
fn finish_plan(
    nest: &LoopNest,
    geometry: &Geometry,
    weights: &CostWeights,
    candidates: u64,
    analyzed: u64,
    survivors: Vec<(usize, Certificate)>,
) -> Plan {
    let model = CostModel { weights: *weights };
    let mut priced: Vec<(usize, Certificate)> = survivors
        .into_iter()
        .map(|(i, mut cert)| {
            cert.cost = model.cost(&cert.fix, nest, geometry.sets());
            cert.weights = *weights;
            (i, cert)
        })
        .collect();
    priced.sort_by(|a, b| a.1.cost.total_cmp(&b.1.cost).then(a.0.cmp(&b.0)));
    // All paddings repair the same site and their cost is strictly
    // monotone in δ: everything after the cheapest survivor is
    // dominated, so only the cheapest is ranked.
    let mut seen_pad = false;
    let ranked = priced
        .into_iter()
        .map(|(_, cert)| cert)
        .filter(|cert| match cert.fix {
            Fix::PadLeadingDim { .. } => !std::mem::replace(&mut seen_pad, true),
            _ => true,
        })
        .collect();
    Plan {
        nest: nest.name.clone(),
        original_geometry: geometry.kind(),
        original_sets: geometry.sets(),
        weights: *weights,
        candidates,
        analyzed,
        ranked,
    }
}

/// Plans repairs for `nest` under `geometry` with default weights and
/// budget. Returns `None` when the nest is already conflict-free (or
/// planning failed); an interfering nest yields a [`Plan`] whose
/// `ranked` list may still be empty when nothing in the frontier works.
#[must_use]
pub fn plan(nest: &LoopNest, geometry: &Geometry, max_pad: u64) -> Option<Plan> {
    plan_with_budget(
        nest,
        geometry,
        max_pad,
        &CostWeights::default(),
        &NestBudget::default(),
    )
    .unwrap_or(None)
}

/// As [`plan`], with explicit weights and a [`NestBudget`]: every
/// candidate analysis polls the budget, so a deadline-enforcing caller
/// can abandon the whole plan cooperatively.
///
/// # Errors
///
/// [`NestError::Cancelled`] when the budget's callback fires — the plan
/// is abandoned whole, never returned truncated. All other analysis
/// failures merely skip the offending candidate.
pub fn plan_with_budget(
    nest: &LoopNest,
    geometry: &Geometry,
    max_pad: u64,
    weights: &CostWeights,
    budget: &NestBudget<'_>,
) -> Result<Option<Plan>, NestError> {
    if is_free(nest, geometry, budget)? {
        return Ok(None);
    }
    let implicated = conflicting_refs(nest, geometry, budget)?;
    let cands = frontier(nest, geometry, max_pad, &implicated);
    let mut survivors = Vec::new();
    let mut analyzed = 0u64;
    for (i, &c) in cands.iter().enumerate() {
        analyzed += 1;
        if let Some(cert) = evaluate(nest, geometry, c, budget)? {
            survivors.push((i, cert));
        }
    }
    Ok(Some(finish_plan(
        nest,
        geometry,
        weights,
        cands.len() as u64,
        analyzed,
        survivors,
    )))
}

/// A thread-safe `(label, begin)` callback observing each candidate's
/// analysis on the evaluating pool thread.
pub type CandidateObserver<'a> = &'a (dyn Fn(&str, bool) + Sync);

/// As [`plan_with_budget`], but the frontier is evaluated by a pool of
/// `threads` scoped worker threads — the daemon's internal batch path.
///
/// `cancelled` is polled by every worker (and threaded into each
/// candidate's [`NestBudget`]); `observer` sees `(label, true)` before
/// and `(label, false)` after each candidate's analysis, on the
/// evaluating thread — the hook the daemon uses to open per-candidate
/// child spans. Results are collected by candidate index, so the
/// ranking is identical to the sequential path's regardless of thread
/// interleaving.
///
/// # Errors
///
/// [`NestError::Cancelled`] when `cancelled` fires anywhere in the
/// frontier — never a truncated ranking.
pub fn plan_parallel(
    nest: &LoopNest,
    geometry: &Geometry,
    max_pad: u64,
    weights: &CostWeights,
    threads: usize,
    cancelled: Option<&(dyn Fn() -> bool + Sync)>,
    observer: Option<CandidateObserver<'_>>,
) -> Result<Option<Plan>, NestError> {
    let poll = || cancelled.is_some_and(|c| c());
    {
        let hook: &dyn Fn() -> bool = &poll;
        let budget = NestBudget::with_cancel(hook);
        if is_free(nest, geometry, &budget)? {
            return Ok(None);
        }
    }
    let implicated = {
        let hook: &dyn Fn() -> bool = &poll;
        let budget = NestBudget::with_cancel(hook);
        conflicting_refs(nest, geometry, &budget)?
    };
    let cands = frontier(nest, geometry, max_pad, &implicated);
    let total = cands.len();
    let next = AtomicUsize::new(0);
    let aborted = AtomicBool::new(false);
    let analyzed = AtomicU64::new(0);
    let slots: Vec<Mutex<Option<Certificate>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let workers = threads.clamp(1, total.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let hook = || aborted.load(Ordering::Relaxed) || poll();
                let budget = NestBudget::with_cancel(&hook);
                loop {
                    if aborted.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let label = cands[i].label();
                    if let Some(obs) = observer {
                        obs(&label, true);
                    }
                    let outcome = evaluate(nest, geometry, cands[i], &budget);
                    if let Some(obs) = observer {
                        obs(&label, false);
                    }
                    analyzed.fetch_add(1, Ordering::Relaxed);
                    match outcome {
                        Ok(Some(cert)) => {
                            *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(cert);
                        }
                        Ok(None) => {}
                        Err(_) => {
                            // Only cancellation escapes `evaluate`; tear
                            // the whole plan down.
                            aborted.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                }
            });
        }
    });
    if aborted.load(Ordering::Relaxed) || poll() {
        return Err(NestError::Cancelled);
    }
    let survivors: Vec<(usize, Certificate)> = slots
        .into_iter()
        .enumerate()
        .filter_map(|(i, slot)| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .map(|cert| (i, cert))
        })
        .collect();
    Ok(Some(finish_plan(
        nest,
        geometry,
        weights,
        total as u64,
        analyzed.into_inner(),
        survivors,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::{AffineRef, Term};
    use crate::prescribe::DEFAULT_MAX_PAD;
    use std::sync::atomic::AtomicUsize;

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
    fn parallel_ranking_matches_sequential() {
        let seq = plan_with_budget(
            &stride_nest(),
            &stride_geometry(),
            DEFAULT_MAX_PAD,
            &CostWeights::default(),
            &NestBudget::default(),
        )
        .unwrap()
        .unwrap();
        for threads in [1usize, 2, 8] {
            let par = plan_parallel(
                &stride_nest(),
                &stride_geometry(),
                DEFAULT_MAX_PAD,
                &CostWeights::default(),
                threads,
                None,
                None,
            )
            .unwrap()
            .unwrap();
            assert_eq!(
                serde_json::to_string(&par.ranked).unwrap(),
                serde_json::to_string(&seq.ranked).unwrap(),
                "threads={threads}"
            );
            assert_eq!(par.candidates, seq.candidates);
            assert_eq!(par.analyzed, seq.analyzed);
        }
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
        // overflow the relational class split), so each polls per
        // component and per enumeration quantum. Let the base triage —
        // two analyses — through, then fire partway into the frontier:
        // the plan must surface Cancelled, never a truncated ranking
        // presented as complete.
        let terms = [3, 5, 7, 9].map(|coeff| term(coeff, 24));
        let nest = LoopNest::new("odd-strides", vec![AffineRef::new(0, terms.to_vec(), 0)]);
        let geometry = Geometry::prime(5, 8).unwrap();
        let polls = AtomicUsize::new(0);
        let count = || {
            polls.fetch_add(1, Ordering::Relaxed);
            false
        };
        let analysis =
            analyze_nest_with_budget(&nest, &geometry, &NestBudget::with_cancel(&count)).unwrap();
        assert!(analysis.enumerated_lines > 0);
        let triage = 2 * polls.load(Ordering::Relaxed);
        let calls = AtomicUsize::new(0);
        let hook = || calls.fetch_add(1, Ordering::Relaxed) >= triage + 2;
        let err = plan_with_budget(
            &nest,
            &geometry,
            DEFAULT_MAX_PAD,
            &CostWeights::default(),
            &NestBudget::with_cancel(&hook),
        )
        .err();
        assert_eq!(err, Some(NestError::Cancelled));
        assert!(
            calls.load(Ordering::Relaxed) > triage,
            "fired in the triage"
        );
    }

    #[test]
    fn fired_budget_cancels_a_symbolic_plan() {
        // The stride nest decides without enumerating, so only the
        // per-component poll can see a budget that has already fired.
        let hook = || true;
        let err = plan_with_budget(
            &stride_nest(),
            &stride_geometry(),
            DEFAULT_MAX_PAD,
            &CostWeights::default(),
            &NestBudget::with_cancel(&hook),
        )
        .err();
        assert_eq!(err, Some(NestError::Cancelled));
    }

    #[test]
    fn parallel_cancellation_aborts_the_whole_plan() {
        // An always-fired hook: wherever the pool threads happen to be,
        // the plan must come back Cancelled — never a partial ranking.
        let hook = || true;
        let err = plan_parallel(
            &stride_nest(),
            &stride_geometry(),
            DEFAULT_MAX_PAD,
            &CostWeights::default(),
            4,
            Some(&hook),
            None,
        )
        .err();
        assert_eq!(err, Some(NestError::Cancelled));
    }

    #[test]
    fn observer_brackets_every_candidate() {
        let events: Mutex<Vec<(String, bool)>> = Mutex::new(Vec::new());
        let obs = |label: &str, begin: bool| {
            events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push((label.to_owned(), begin));
        };
        let p = plan_parallel(
            &stride_nest(),
            &stride_geometry(),
            DEFAULT_MAX_PAD,
            &CostWeights::default(),
            1,
            None,
            Some(&obs),
        )
        .unwrap()
        .unwrap();
        let events = events.into_inner().unwrap_or_else(PoisonError::into_inner);
        let begins = events.iter().filter(|(_, b)| *b).count();
        let ends = events.iter().filter(|(_, b)| !*b).count();
        assert_eq!(begins as u64, p.analyzed);
        assert_eq!(ends as u64, p.analyzed);
    }

    #[test]
    fn weights_reprice_the_ranking() {
        // With shrinking priced above hardware, the geometry switch
        // wins; the default model prefers the shrink. Same survivors,
        // different order — the point of an explicit cost model.
        let cheap_hw = CostWeights {
            pad_word: 1.0,
            shrink_fraction: 1_000_000_000.0,
            geometry_set: 1.0,
        };
        let p = plan_with_budget(
            &stride_nest(),
            &stride_geometry(),
            DEFAULT_MAX_PAD,
            &cheap_hw,
            &NestBudget::default(),
        )
        .unwrap()
        .unwrap();
        assert!(
            matches!(p.ranked[0].fix, Fix::SwitchToPrime { exponent: 13 }),
            "{:?}",
            p.ranked[0].fix
        );
        assert_eq!(p.ranked[0].weights, cheap_hw);
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
