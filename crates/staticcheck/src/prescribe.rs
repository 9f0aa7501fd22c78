//! Layer-3 repairs: the vocabulary of fixes for an interfering loop nest
//! and the machine-checkable certificate that carries one. The
//! cost-ranked planner ([`plan`](mod@crate::plan)) searches these fixes.
//!
//! The repair vocabulary mirrors the paper's own remedies:
//!
//! 1. **Pad the leading dimension** (§2's classic fix): rewrite every
//!    coefficient that is a multiple of the declared leading dimension
//!    `k·ld` to `k·(ld + δ)` — repairing the power-of-two-stride
//!    pathology without touching the cache.
//! 2. **Shrink a trip count** (the §4 sub-block discipline): bound a
//!    dimension of an implicated reference to the largest trip count
//!    that renders the whole nest conflict-free.
//! 3. **Change the cache geometry** — the paper's headline move:
//!    switch a power-of-two cache to a supported Mersenne geometry
//!    ([`Fix::SwitchToPrime`]) or bump a prime cache to a larger
//!    supported exponent ([`Fix::BumpExponent`]).
//!
//! Historically these were *searched* in that order and the first hit
//! won. Today the planner ([`crate::plan::plan`]) checks the full
//! candidate frontier and ranks every surviving repair by cost;
//! [`crate::plan::Plan::into_best`] is the cheapest.
//! Every prescription is packaged as a [`Certificate`] carrying the
//! repaired nest, the repaired geometry, its cost, and the weights it
//! was ranked under; [`Certificate::verify`] re-runs the abstract
//! interpreter from scratch, so a certificate is never taken on faith —
//! `vcache check --nests --prescribe` and the differential tests replay
//! them through the simulator as well.

use serde::Serialize;

use crate::absint::{analyze_nest, NestVerdict};
use crate::conflict::Geometry;
use crate::nest::LoopNest;
use crate::plan::CostWeights;

/// Largest padding delta tried by default.
pub const DEFAULT_MAX_PAD: u64 = 64;

/// Largest padding delta a served request may ask the planner to try.
/// The frontier holds one candidate per delta, built before the budget
/// is first polled, so an unbounded `max_pad` is an unbounded allocation.
pub const MAX_PAD_BOUND: u64 = 4096;

/// A single repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Fix {
    /// Pad the declared leading dimension from `from` to `to`.
    PadLeadingDim {
        /// Original leading dimension.
        from: u64,
        /// Padded leading dimension.
        to: u64,
    },
    /// Shrink dimension `dim` of reference `ref_index` from trip count
    /// `from` to `to`.
    ShrinkTrip {
        /// Reference index in the nest.
        ref_index: usize,
        /// Dimension index within the reference (0 = outermost).
        dim: usize,
        /// Original trip count.
        from: u64,
        /// Repaired trip count.
        to: u64,
    },
    /// Bump a prime geometry to a larger supported Mersenne exponent.
    BumpExponent {
        /// Original exponent.
        from: u32,
        /// Repaired exponent.
        to: u32,
    },
    /// Replace a power-of-two geometry with a supported Mersenne
    /// geometry of at least the same set count.
    SwitchToPrime {
        /// The Mersenne exponent of the replacement geometry.
        exponent: u32,
    },
}

impl std::fmt::Display for Fix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::PadLeadingDim { from, to } => {
                write!(f, "pad leading dimension {from} -> {to}")
            }
            Self::ShrinkTrip {
                ref_index,
                dim,
                from,
                to,
            } => write!(f, "shrink ref {ref_index} dim {dim} trip {from} -> {to}"),
            Self::BumpExponent { from, to } => {
                write!(f, "bump Mersenne exponent {from} -> {to}")
            }
            Self::SwitchToPrime { exponent } => {
                write!(f, "switch to prime geometry 2^{exponent} - 1")
            }
        }
    }
}

/// A machine-checkable repair certificate: applying [`Certificate::fix`]
/// to the original nest/geometry yields [`Certificate::fixed_nest`]
/// under [`Certificate::fixed_geometry`], which the abstract interpreter
/// proves conflict-free. The certificate also records how the planner
/// priced it ([`Certificate::cost`] under [`Certificate::weights`]), so
/// a stored ranking is auditable and re-rankable offline.
#[derive(Debug, Clone, Serialize)]
pub struct Certificate {
    /// Name of the repaired nest.
    pub nest: String,
    /// Tag of the original (interfering) geometry.
    pub original_geometry: &'static str,
    /// Set count of the original geometry.
    pub original_sets: u64,
    /// The repair.
    pub fix: Fix,
    /// The repaired nest (identical to the original for geometry fixes).
    pub fixed_nest: LoopNest,
    /// The geometry after the repair (identical to the original for
    /// program fixes).
    pub fixed_geometry: Geometry,
    /// The planner's price for this repair (lower ranks first).
    pub cost: f64,
    /// The cost-model weights the price was computed under.
    pub weights: CostWeights,
}

impl Certificate {
    /// Re-derives the claim from scratch: the repaired nest under the
    /// repaired geometry is conflict-free.
    #[must_use]
    pub fn verify(&self) -> bool {
        analyze_nest(&self.fixed_nest, &self.fixed_geometry)
            .map(|a| a.verdict == NestVerdict::ConflictFree)
            .unwrap_or(false)
    }
}

/// A probabilistic repair *advisory*: where certificates prove an affine
/// repair, advisories quantify one for non-affine workloads — the
/// closed-form expected conflict-miss reduction of switching the same
/// workload from the pow2 to the Mersenne-prime geometry. The payload
/// makes the paper's headline machine-checkable on random access
/// streams: `expected_misses_prime < expected_misses_pow2` whenever an
/// advisory is emitted.
#[derive(Debug, Clone, Serialize)]
pub struct Advisory {
    /// Workload the advisory repairs.
    pub workload: String,
    /// The advised fix (always a geometry switch today).
    pub fix: Fix,
    /// Closed-form expected conflict misses under the pow2 geometry.
    pub expected_misses_pow2: f64,
    /// Closed-form expected conflict misses under the prime geometry.
    pub expected_misses_prime: f64,
    /// Absolute expected-miss reduction (`pow2 − prime`, positive).
    pub reduction: f64,
}

/// Recovers the Mersenne exponent of a prime geometry from its set
/// count: `sets = 2^e − 1` iff `sets + 1` is a power of two.
fn mersenne_exponent_of(sets: u64) -> Option<u32> {
    let next = sets.checked_add(1)?;
    next.is_power_of_two().then(|| next.trailing_zeros())
}

/// Pairs each workload's pow2/prime probabilistic rows and emits a
/// [`Fix::SwitchToPrime`] advisory wherever the prime geometry strictly
/// reduces the closed-form expected conflict-miss count. The advised
/// exponent is derived from the prime row's own geometry, so advisories
/// stay truthful whatever exponent the suite ran.
#[must_use]
pub fn advise_switch_to_prime(rows: &[crate::probabilistic::ProbabilisticRow]) -> Vec<Advisory> {
    let mut advisories = Vec::new();
    for row in rows.iter().filter(|r| r.geometry == "pow2") {
        let Some(prime) = rows
            .iter()
            .find(|r| r.geometry == "prime" && r.workload == row.workload)
        else {
            continue;
        };
        let Some(exponent) = mersenne_exponent_of(prime.verdict.model().sets) else {
            // A prime row whose set count is not Mersenne-shaped cannot
            // be advised as a SwitchToPrime; skip rather than fabricate
            // an exponent.
            continue;
        };
        let pow2_misses = row.verdict.expected_misses();
        let prime_misses = prime.verdict.expected_misses();
        if prime_misses < pow2_misses {
            advisories.push(Advisory {
                workload: row.workload.clone(),
                fix: Fix::SwitchToPrime { exponent },
                expected_misses_pow2: pow2_misses,
                expected_misses_prime: prime_misses,
                reduction: pow2_misses - prime_misses,
            });
        }
    }
    advisories
}

/// Padding candidates: rewrite every coefficient that is a (signed)
/// multiple `k·ld` of the leading dimension to `k·(ld + δ)` — a padded
/// array moves *every* row walk, including every-other-row strides like
/// `2·ld`, not just the unit row stride.
pub(crate) fn pad_nest(nest: &LoopNest, ld: u64, delta: u64) -> Option<LoopNest> {
    if ld == 0 {
        return None;
    }
    let old = i64::try_from(ld).ok()?;
    let new = i64::try_from(ld.checked_add(delta)?).ok()?;
    let mut fixed = nest.clone();
    fixed.leading_dim = Some(ld + delta);
    let mut changed = false;
    for r in &mut fixed.refs {
        for t in &mut r.terms {
            if t.coeff != 0 && t.coeff % old == 0 {
                let k = t.coeff / old;
                t.coeff = k.checked_mul(new)?;
                changed = true;
            }
        }
    }
    changed.then_some(fixed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::{NestBudget, NestError};
    use crate::nest::{AffineRef, Term};
    use crate::plan::{plan, plan_with_budget, Plan};
    use crate::probabilistic::{
        Arithmetic, CollisionModel, MonteCarlo, ProbVerdict, ProbabilisticRow,
    };
    use vcache_core::blocking::{conflict_free_subblock, max_conflict_free_b2, SubBlockPlan};
    use vcache_mersenne::MersenneModulus;

    fn pow2_13() -> Geometry {
        Geometry::pow2(8192, 1).unwrap()
    }

    fn prime_13() -> Geometry {
        Geometry::prime(13, 1).unwrap()
    }

    /// The planner's cheapest repair.
    fn best_repair(nest: &LoopNest, geometry: &Geometry, max_pad: u64) -> Option<Certificate> {
        plan(nest, geometry, max_pad).and_then(Plan::into_best)
    }

    #[test]
    fn free_nests_need_no_prescription() {
        let n = LoopNest::new(
            "free",
            vec![AffineRef::new(0, vec![Term { coeff: 1, trip: 64 }], 0)],
        );
        assert!(best_repair(&n, &pow2_13(), DEFAULT_MAX_PAD).is_none());
    }

    #[test]
    fn pow2_leading_dim_pathology_is_padded_by_one() {
        // A p = 8192 matrix walked down columns in 4096-column blocks:
        // stride 8192 mod 8192 = 0, every line lands in one set. The
        // one-word pad is by far the cheapest repair, so the planner's
        // best matches the paper's classic fix.
        let m = MersenneModulus::new(13).unwrap();
        let plan = conflict_free_subblock(8192, 4096, m);
        let n = LoopNest::subblock("ld-pow2", 0, 8192, &plan, 0);
        let cert = best_repair(&n, &pow2_13(), DEFAULT_MAX_PAD).unwrap();
        assert_eq!(
            cert.fix,
            Fix::PadLeadingDim {
                from: 8192,
                to: 8193
            }
        );
        assert_eq!(cert.fixed_nest.leading_dim, Some(8193));
        assert!(cert.verify());
        assert_eq!(cert.weights, CostWeights::default());
        assert!(cert.cost > 0.0);
    }

    #[test]
    fn pad_nest_rewrites_multiples_of_the_leading_dim() {
        // An every-other-row walk carries the coefficient 2·ld; padding
        // the array must move it to 2·(ld + δ) or the "repaired" nest no
        // longer models the padded layout.
        let n = LoopNest {
            name: "two-ld".into(),
            leading_dim: Some(100),
            refs: vec![AffineRef::new(
                0,
                vec![
                    Term {
                        coeff: 200,
                        trip: 8,
                    },
                    Term {
                        coeff: -100,
                        trip: 4,
                    },
                    Term { coeff: 7, trip: 3 },
                ],
                0,
            )],
        };
        let padded = pad_nest(&n, 100, 3).unwrap();
        assert_eq!(padded.leading_dim, Some(103));
        let coeffs: Vec<i64> = padded.refs[0].terms.iter().map(|t| t.coeff).collect();
        assert_eq!(coeffs, vec![206, -103, 7]);
    }

    #[test]
    fn padding_repairs_a_two_ld_row_walk() {
        // Regression for the multiples bug: stride 2·ld with ld = 8192
        // on the pow2 cache. Every touched line sits 2·8192 words apart
        // — one set. Under the old ±ld-only rewrite the 2·ld coefficient
        // survived any pad, so no padding certificate existed at all.
        let n = LoopNest {
            name: "two-ld-walk".into(),
            leading_dim: Some(8192),
            refs: vec![AffineRef::new(
                0,
                vec![Term {
                    coeff: 2 * 8192,
                    trip: 64,
                }],
                0,
            )],
        };
        let cert = best_repair(&n, &pow2_13(), DEFAULT_MAX_PAD).unwrap();
        assert_eq!(
            cert.fix,
            Fix::PadLeadingDim {
                from: 8192,
                to: 8193
            }
        );
        assert_eq!(cert.fixed_nest.refs[0].terms[0].coeff, 2 * 8193);
        assert!(cert.verify());
    }

    #[test]
    fn erratum_nest_shrink_site_is_ranked_and_exact() {
        // §4 erratum: P = 10000, C = 8191, b1 = 1000 admits b2 = 4, not
        // the paper's 8. Padding cannot fix this within 64 (b1 = 1000
        // segments at any nearby stride still overlap), so program
        // repairs are trip shrinks — and the binary search on the b2
        // dimension must recover exactly max_conflict_free_b2 = 4.
        let m = MersenneModulus::new(13).unwrap();
        let sub = SubBlockPlan {
            b1: 1000,
            b2: 8,
            cache_lines: m.value(),
        };
        let n = LoopNest::subblock("erratum", 0, 10_000, &sub, 0);
        let p = plan(&n, &prime_13(), DEFAULT_MAX_PAD).unwrap();
        let expected = max_conflict_free_b2(10_000, 1000, m);
        assert_eq!(expected, 4);
        let b2_shrink = p
            .ranked
            .iter()
            .find(|c| {
                matches!(
                    c.fix,
                    Fix::ShrinkTrip {
                        ref_index: 0,
                        dim: 0,
                        ..
                    }
                )
            })
            .expect("b2 shrink must survive");
        assert_eq!(
            b2_shrink.fix,
            Fix::ShrinkTrip {
                ref_index: 0,
                dim: 0,
                from: 8,
                to: expected,
            }
        );
        for c in &p.ranked {
            assert!(c.verify(), "{} does not verify", c.fix);
        }
        // The planner's best is whichever shrink drops the smallest
        // iteration fraction; it must be at least as cheap as the b2
        // shrink it superseded.
        let best = p.best().unwrap();
        assert!(matches!(best.fix, Fix::ShrinkTrip { .. }));
        assert!(best.cost <= b2_shrink.cost);
    }

    #[test]
    fn pow2_stride_nest_prefers_the_cheap_shrink() {
        // Stride 4096 words over 8191 iterations with no declared
        // leading dimension: padding is unavailable. Both the trip
        // shrink (orbit of line stride 512 on 8192 sets is 16) and the
        // prime switch survive; the shrink drops iterations while the
        // switch costs a whole geometry change, so the ranking puts the
        // shrink first.
        let n = LoopNest::new(
            "pow2-stride",
            vec![AffineRef::new(
                0,
                vec![Term {
                    coeff: 4096,
                    trip: 8191,
                }],
                0,
            )],
        );
        let g = Geometry::pow2(8192, 8).unwrap();
        let cert = best_repair(&n, &g, DEFAULT_MAX_PAD).unwrap();
        assert_eq!(
            cert.fix,
            Fix::ShrinkTrip {
                ref_index: 0,
                dim: 0,
                from: 8191,
                to: 16,
            }
        );
        assert!(cert.verify());
    }

    #[test]
    fn geometry_switch_fires_when_program_fixes_fail() {
        // Two same-stream refs aliasing at a multiple of 8192 lines
        // apart under pow2; shrinking trips to 1 still leaves two
        // distinct lines in one set, padding is unavailable, so only the
        // prime switch can save it — and the smallest exponent has the
        // smallest set-count delta, so it ranks first.
        let a = AffineRef::new(0, vec![Term { coeff: 1, trip: 2 }], 0);
        let b = AffineRef::new(8192 * 8, vec![Term { coeff: 1, trip: 2 }], 0);
        let n = LoopNest::new("alias", vec![a, b]);
        let g = Geometry::pow2(8192, 8).unwrap();
        let cert = best_repair(&n, &g, DEFAULT_MAX_PAD).unwrap();
        assert_eq!(cert.fix, Fix::SwitchToPrime { exponent: 13 });
        assert_eq!(cert.fixed_geometry.kind(), "prime");
        assert!(cert.verify());
    }

    #[test]
    fn prime_exponent_bump_rescues_an_oversized_orbit() {
        // Stride 8191 lines on the 8191-set prime cache: r = 0, orbit 1,
        // immediate self-conflict; trips of 1 are free so the shrink
        // rule would fire — block it by pairing two offset copies of the
        // same stream so every program fix fails, then only a larger
        // prime helps, and the smallest workable bump is cheapest.
        let a = AffineRef::new(
            0,
            vec![Term {
                coeff: 8191,
                trip: 2,
            }],
            0,
        );
        let b = AffineRef::new(8191 * 3, vec![Term { coeff: 0, trip: 1 }], 0);
        let n = LoopNest::new("orbit-1", vec![a, b]);
        let cert = best_repair(&n, &Geometry::prime(13, 1).unwrap(), DEFAULT_MAX_PAD).unwrap();
        assert_eq!(cert.fix, Fix::BumpExponent { from: 13, to: 17 });
        assert!(cert.verify());
    }

    #[test]
    fn cancelled_budget_aborts_the_search() {
        // An interfering nest with a repair whose analyses really
        // enumerate: four odd strides overflow the relational class
        // split. Planned from a failed analysis, so the first candidate
        // decides every component: a callback that lets its first
        // component's decision through and fires inside the enumeration
        // must surface as Cancelled, not as a bogus "no repair found".
        let terms = [3, 5, 7, 9].map(|coeff| Term { coeff, trip: 24 });
        let n = LoopNest::new("odd-strides", vec![AffineRef::new(0, terms.to_vec(), 0)]);
        let g = Geometry::prime(5, 8).unwrap();
        assert!(best_repair(&n, &g, DEFAULT_MAX_PAD).is_some());
        let polls = std::cell::Cell::new(0);
        let hook = || {
            polls.set(polls.get() + 1);
            polls.get() >= 2
        };
        let budget = NestBudget::with_cancel(&hook);
        assert_eq!(
            plan_with_budget(&n, &g, None, DEFAULT_MAX_PAD, &budget, None).err(),
            Some(NestError::Cancelled)
        );
    }

    #[test]
    fn certificates_serialize_to_json() {
        let m = MersenneModulus::new(13).unwrap();
        let plan = conflict_free_subblock(8192, 4096, m);
        let n = LoopNest::subblock("ld-pow2", 0, 8192, &plan, 0);
        let cert = best_repair(&n, &pow2_13(), DEFAULT_MAX_PAD).unwrap();
        let json = serde_json::to_string(&cert).unwrap();
        assert!(json.contains("PadLeadingDim"));
        assert!(json.contains("fixed_geometry"));
        assert!(json.contains("\"cost\""));
        assert!(json.contains("\"weights\""));
        assert!(json.contains("\"pad_word\""));
    }

    fn prob_row(
        workload: &str,
        geometry: &'static str,
        sets: u64,
        expected_misses: f64,
    ) -> ProbabilisticRow {
        ProbabilisticRow {
            workload: workload.to_owned(),
            geometry,
            verdict: ProbVerdict::ExpectedConflicts {
                expected_misses,
                distinct_sets: 1.0,
                bound: 0.0,
                model: CollisionModel {
                    distribution: "uniform-span",
                    support_lines: 8,
                    occupied_sets: 8,
                    accesses: 64,
                    sets,
                    associativity: 1,
                    line_words: 1,
                    expected_total_misses: expected_misses,
                    expected_compulsory_misses: 0.0,
                    tail_threshold: 2,
                    arithmetic: Arithmetic::FloatNearestEven,
                },
            },
            monte_carlo: MonteCarlo {
                sweeps: 0,
                empirical_mean: expected_misses,
                std_err: 0.0,
            },
            tolerance: 1.0,
            drift: 0.0,
            ok: true,
        }
    }

    #[test]
    fn advisory_exponent_comes_from_the_prime_rows_geometry() {
        // A suite run on 2^5 − 1 = 31 sets must advise exponent 5, not
        // a hardcoded 13.
        let rows = vec![
            prob_row("w", "pow2", 32, 10.0),
            prob_row("w", "prime", 31, 4.0),
        ];
        let advisories = advise_switch_to_prime(&rows);
        assert_eq!(advisories.len(), 1);
        assert_eq!(advisories[0].fix, Fix::SwitchToPrime { exponent: 5 });
        assert!((advisories[0].reduction - 6.0).abs() < 1e-12);
    }

    #[test]
    fn non_mersenne_prime_rows_yield_no_advisory() {
        // 30 sets is not 2^e − 1: no exponent is derivable, so no
        // advisory is emitted rather than a fabricated one.
        let rows = vec![
            prob_row("w", "pow2", 32, 10.0),
            prob_row("w", "prime", 30, 4.0),
        ];
        assert!(advise_switch_to_prime(&rows).is_empty());
    }
}
