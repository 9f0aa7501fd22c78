//! The canonical Layer-3 suite: committed (loop nest, geometry) pairs
//! with their expected abstract-interpretation verdicts, run by
//! `vcache check --nests`.
//!
//! Where the Layer-2 suite (`suite.rs`) pins verdicts for flat word
//! traces, this one pins them for *affine loop nests* — including nests
//! whose footprints are far too large to enumerate, which only
//! symbolic decisions can settle. A verdict that drifts from the table is a
//! `VC101` finding. With prescriptions enabled, every interfering row
//! must additionally admit a repair whose [`Certificate`] re-verifies;
//! a missing or failing certificate is a `VC102` finding. The planner's
//! *choice* is pinned too: the committed [`EXPECTED_BEST`] table records
//! the cheapest repair per interfering row, and a best-certificate that
//! drifts from it is a `VC106` finding — a cost-model change must be an
//! intentional, reviewed edit of the table, never silent re-ranking.

use serde::Serialize;
use vcache_core::blocking::{conflict_free_subblock, SubBlockPlan};
use vcache_core::fft::plan_fft;
use vcache_mersenne::MersenneModulus;

use crate::absint::{analyze_nest, NestBudget, NestVerdict};
use crate::lint::Finding;
use crate::nest::{AffineRef, LoopNest, Term};
use crate::plan::plan_with_budget;
use crate::prescribe::{Certificate, DEFAULT_MAX_PAD};
use crate::suite::{canonical_geometries, Expect, EXPONENT};

/// One suite case: a nest plus expected verdicts under both mappers.
pub struct NestCase {
    /// The nest under analysis.
    pub nest: LoopNest,
    /// Words per line for this case.
    pub line_words: u64,
    /// Expected verdict under the power-of-two mapper (8192 sets).
    pub expect_pow2: Expect,
    /// Expected verdict under the Mersenne mapper (8191 sets).
    pub expect_prime: Expect,
}

/// One evaluated row of the nest suite, for reports.
#[derive(Debug, Clone, Serialize)]
pub struct NestSuiteResult {
    /// Nest name.
    pub nest: String,
    /// Geometry tag.
    pub geometry: &'static str,
    /// What the table expects.
    pub expected: Expect,
    /// What the abstract interpreter concluded.
    pub verdict: NestVerdict,
    /// Lines materialized by enumeration fallbacks (0 = purely
    /// abstract).
    pub enumerated_lines: u64,
    /// `expected` matches `verdict`.
    pub ok: bool,
}

fn matches_nest(expect: Expect, verdict: NestVerdict) -> bool {
    matches!(
        (expect, verdict),
        (Expect::Free, NestVerdict::ConflictFree)
            | (Expect::SelfInt, NestVerdict::SelfInterfering)
            | (Expect::CrossInt, NestVerdict::CrossInterfering)
    )
}

fn term(coeff: i64, trip: u64) -> Term {
    Term { coeff, trip }
}

/// Builds the committed nest suite.
///
/// # Panics
///
/// Panics only if the canonical plans themselves fail to construct,
/// which would be a programming error in this module.
#[must_use]
pub fn cases() -> Vec<NestCase> {
    let Ok(m) = MersenneModulus::new(EXPONENT) else {
        unreachable!("canonical exponent {EXPONENT} unsupported")
    };
    let ld_plan = conflict_free_subblock(8192, 4096, m);
    let erratum_plan = SubBlockPlan {
        b1: 1000,
        b2: 8,
        cache_lines: m.value(),
    };
    let fixed_plan = SubBlockPlan {
        b1: 1000,
        b2: 4,
        cache_lines: m.value(),
    };
    let Some(fft) = plan_fft(1 << 20, m) else {
        unreachable!("canonical FFT plan failed")
    };
    vec![
        // Eq. 8 headline: line stride 512 has orbit 16 under 8192 sets
        // but orbit 8191 under the prime mapper.
        NestCase {
            nest: LoopNest::new(
                "vec-pow2-stride",
                vec![AffineRef::new(0, vec![term(4096, 8191)], 0)],
            ),
            line_words: 8,
            expect_pow2: Expect::SelfInt,
            expect_prime: Expect::Free,
        },
        // A 8192-word leading dimension walked down a column block:
        // stride ≡ 0 (mod 8192) pins the pow2 mapper to one set.
        NestCase {
            nest: LoopNest::subblock("subblock-ld-pow2", 0, 8192, &ld_plan, 0),
            line_words: 1,
            expect_pow2: Expect::SelfInt,
            expect_prime: Expect::Free,
        },
        // The paper's §4 erratum: P = 10000, b1 = 1000 admits b2 = 4,
        // not 8 — interfering under *both* mappers.
        NestCase {
            nest: LoopNest::subblock("subblock-erratum", 0, 10_000, &erratum_plan, 0),
            line_words: 1,
            expect_pow2: Expect::SelfInt,
            expect_prime: Expect::SelfInt,
        },
        // The corrected bound b2 = 4: conflict-free both ways (the pow2
        // residue 1808 also tiles at this size).
        NestCase {
            nest: LoopNest::subblock("subblock-erratum-fixed", 0, 10_000, &fixed_plan, 0),
            line_words: 1,
            expect_pow2: Expect::Free,
            expect_prime: Expect::Free,
        },
        // Blocked-FFT row phase of a 2^20-point transform: stride B2 =
        // 1024, orbit 8 under pow2, full orbit under the prime mapper.
        NestCase {
            nest: LoopNest::fft_stage("fft-row-stage", 0, &fft.row_stage(), 0, 0),
            line_words: 1,
            expect_pow2: Expect::SelfInt,
            expect_prime: Expect::Free,
        },
        // Column phase: unit stride, windows inside either set count.
        NestCase {
            nest: LoopNest::fft_stage("fft-col-stage", 0, &fft.column_stage(), 0, 0),
            line_words: 1,
            expect_pow2: Expect::Free,
            expect_prime: Expect::Free,
        },
        // Two streams 8 · 8192 lines apart: aliased onto sets 0..7 by
        // the pow2 mapper, shifted to sets 8..15 by the prime one.
        NestCase {
            nest: LoopNest::new(
                "cross-stream-alias",
                vec![
                    AffineRef::new(0, vec![term(1, 64)], 0),
                    AffineRef::new(8 * 8192 * 8, vec![term(1, 64)], 1),
                ],
            ),
            line_words: 8,
            expect_pow2: Expect::CrossInt,
            expect_prime: Expect::Free,
        },
        // 2^32 words of traffic over a 512-line window: the
        // reference-level line interval decides it before any class
        // split (enumeration would need 2^32 words), and it must stay
        // purely abstract.
        NestCase {
            nest: LoopNest::new(
                "huge-reuse",
                vec![AffineRef::new(0, vec![term(0, 1 << 20), term(1, 4096)], 0)],
            ),
            line_words: 8,
            expect_pow2: Expect::Free,
            expect_prime: Expect::Free,
        },
        // Stride-2 streams in opposite parity classes, a megaword
        // apart: coset separation frees them under pow2; under the odd
        // prime modulus the classes mix and the CRT decides.
        NestCase {
            nest: LoopNest::new(
                "coset-disjoint",
                vec![
                    AffineRef::new(0, vec![term(2, 2048)], 0),
                    AffineRef::new(1_000_001, vec![term(2, 2048)], 1),
                ],
            ),
            line_words: 1,
            expect_pow2: Expect::Free,
            expect_prime: Expect::Free,
        },
        // A skewed diagonal: word stride 8195 ≡ 3 (mod 8) splits into 8
        // carry-free classes of line stride 8195 ≡ 4 (mod 8191). The
        // 33M-word footprint is beyond the enumeration cap — only the
        // relational domain reaches a verdict. The pow2 mapper spreads
        // the odd stride; under the prime one the inter-class offsets
        // solve to in-range conflicts.
        NestCase {
            nest: LoopNest::new(
                "diag-skew",
                vec![AffineRef::new(0, vec![term(8195, 4096)], 0)],
            ),
            line_words: 8,
            expect_pow2: Expect::Free,
            expect_prime: Expect::SelfInt,
        },
        // An 8193-word leading dimension (the classic pad!) walked over
        // a 4-column window with a non-unit column stride: stride ≡ 1
        // (mod 8) splits into classes whose line stride 8193 ≡ 1
        // (mod 8192) re-aligns columns onto the same sets under pow2.
        NestCase {
            nest: LoopNest::new(
                "ld-odd-cols",
                vec![AffineRef::new(0, vec![term(8193, 512), term(2, 4)], 0)],
            ),
            line_words: 8,
            expect_pow2: Expect::SelfInt,
            expect_prime: Expect::Free,
        },
        // A non-unit unaligned leading dimension (8196 ≡ 4 mod 8) over
        // a 32-word row: the tall thin difference box is closed by the
        // mixed modular solve, never the line walk. 8196/4 lines ≡ 2049
        // ≡ 1 (mod 2048) collide under pow2; the prime mapper separates.
        NestCase {
            nest: LoopNest::new(
                "ld-unaligned",
                vec![AffineRef::new(0, vec![term(8196, 1024), term(1, 32)], 0)],
            ),
            line_words: 8,
            expect_pow2: Expect::SelfInt,
            expect_prime: Expect::Free,
        },
        // A non-lattice-aligned base (word 5) over a two-level grid of
        // unaligned strides: bounded offsets keep every class pair away
        // from a full set count under both mappers.
        NestCase {
            nest: LoopNest::new(
                "offset-grid",
                vec![AffineRef::new(5, vec![term(20, 512), term(6, 40)], 0)],
            ),
            line_words: 8,
            expect_pow2: Expect::Free,
            expect_prime: Expect::Free,
        },
        // Two skewed stride-12 streams a megaword apart: the class
        // bases differ by 2^20/8 lines, a multiple of neither set
        // count's orbit — cross-interfering under both mappers, found
        // by the cross-class CRT without materializing a line.
        NestCase {
            nest: LoopNest::new(
                "skew-pair",
                vec![
                    AffineRef::new(0, vec![term(12, 50)], 0),
                    AffineRef::new(1 << 20, vec![term(12, 50)], 1),
                ],
            ),
            line_words: 8,
            expect_pow2: Expect::CrossInt,
            expect_prime: Expect::CrossInt,
        },
    ]
}

/// The committed best-repair table: (nest, geometry kind, the cheapest
/// fix's display form) for every interfering canonical row. The planner
/// re-derives these on every `--prescribe` run; drift is a `VC106`
/// finding, so a cost-model change must come with a reviewed edit here.
pub const EXPECTED_BEST: &[(&str, &str, &str)] = &[
    (
        "vec-pow2-stride",
        "pow2",
        "shrink ref 0 dim 0 trip 8191 -> 16",
    ),
    (
        "subblock-ld-pow2",
        "pow2",
        "pad leading dimension 8192 -> 8193",
    ),
    (
        "subblock-erratum",
        "pow2",
        "shrink ref 0 dim 1 trip 1000 -> 848",
    ),
    (
        "subblock-erratum",
        "prime",
        "shrink ref 0 dim 1 trip 1000 -> 854",
    ),
    ("fft-row-stage", "pow2", "shrink ref 0 dim 0 trip 1024 -> 8"),
    (
        "cross-stream-alias",
        "pow2",
        "switch to prime geometry 2^13 - 1",
    ),
    ("diag-skew", "prime", "shrink ref 0 dim 0 trip 4096 -> 2048"),
    ("ld-odd-cols", "pow2", "shrink ref 0 dim 1 trip 4 -> 1"),
    ("ld-unaligned", "pow2", "shrink ref 0 dim 1 trip 32 -> 28"),
    ("skew-pair", "pow2", "switch to prime geometry 2^19 - 1"),
    ("skew-pair", "prime", "shrink ref 0 dim 0 trip 50 -> 11"),
];

/// The full outcome of a nest-suite run.
#[derive(Debug, Clone)]
pub struct NestSuiteRun {
    /// Every evaluated (nest, geometry) row.
    pub rows: Vec<NestSuiteResult>,
    /// The cheapest verifying repair per interfering row.
    pub certificates: Vec<Certificate>,
    /// Every other ranked survivor, across all interfering rows, in
    /// each row's ranking order.
    pub alternatives: Vec<Certificate>,
    /// `VC101`/`VC102`/`VC106` findings.
    pub findings: Vec<Finding>,
}

/// Runs the nest suite.
///
/// Returns every row, a `VC101` finding per verdict drift, and — when
/// `with_prescriptions` — the planner's ranked repairs per interfering
/// row (the cheapest in [`NestSuiteRun::certificates`], the rest in
/// [`NestSuiteRun::alternatives`]), plus a `VC102` finding for each row
/// the planner cannot repair (or whose certificate fails
/// re-verification) and a `VC106` finding when the best choice drifts
/// from [`EXPECTED_BEST`].
///
/// # Panics
///
/// Panics only if a canonical case errors out of the analyzer, which
/// would be a programming error in this module.
#[must_use]
pub fn run(with_prescriptions: bool) -> NestSuiteRun {
    let mut results = Vec::new();
    let mut certificates = Vec::new();
    let mut alternatives = Vec::new();
    let mut findings = Vec::new();
    for case in cases() {
        let expectations = [case.expect_pow2, case.expect_prime];
        for (geometry, expected) in canonical_geometries(case.line_words)
            .into_iter()
            .zip(expectations)
        {
            let analysis = match analyze_nest(&case.nest, &geometry) {
                Ok(a) => a,
                Err(e) => unreachable!("canonical nest undecidable: {e}"),
            };
            let ok = matches_nest(expected, analysis.verdict);
            if !ok {
                findings.push(Finding::gate(
                    "VC101",
                    &format!("nestsuite:{}", case.nest.name),
                    format!(
                        "nest verdict drift under {geometry}: expected {expected:?}, interpreter says {}",
                        analysis.verdict
                    ),
                ));
            }
            if with_prescriptions && !analysis.verdict.is_conflict_free() {
                let ranked = plan_with_budget(
                    &case.nest,
                    &geometry,
                    Some(&analysis),
                    DEFAULT_MAX_PAD,
                    &NestBudget::default(),
                    None,
                )
                .ok()
                .flatten()
                .map(|p| p.ranked)
                .unwrap_or_default();
                if ranked.is_empty() {
                    findings.push(Finding::gate(
                        "VC102",
                        &format!("nestsuite:{}", case.nest.name),
                        format!("no prescription repairs this nest under {geometry}"),
                    ));
                } else {
                    for cert in &ranked {
                        if !cert.verify() {
                            findings.push(Finding::gate(
                                "VC102",
                                &format!("nestsuite:{}", case.nest.name),
                                format!(
                                    "prescription '{}' under {geometry} fails re-verification",
                                    cert.fix
                                ),
                            ));
                        }
                    }
                    let best_fix = ranked[0].fix.to_string();
                    let committed = EXPECTED_BEST
                        .iter()
                        .find(|(nest, geo, _)| *nest == case.nest.name && *geo == geometry.kind());
                    match committed {
                        Some((_, _, fix)) if *fix == best_fix => {}
                        Some((_, _, fix)) => findings.push(Finding::gate(
                            "VC106",
                            &format!("nestsuite:{}", case.nest.name),
                            format!(
                                "best-certificate drift under {geometry}: committed '{fix}', planner chose '{best_fix}'"
                            ),
                        )),
                        None => findings.push(Finding::gate(
                            "VC106",
                            &format!("nestsuite:{}", case.nest.name),
                            format!(
                                "interfering row has no committed best repair (planner chose '{best_fix}' under {geometry})"
                            ),
                        )),
                    }
                    let mut ranked = ranked;
                    certificates.push(ranked.remove(0));
                    alternatives.extend(ranked);
                }
            }
            results.push(NestSuiteResult {
                nest: case.nest.name.clone(),
                geometry: analysis.geometry,
                expected,
                verdict: analysis.verdict,
                enumerated_lines: analysis.enumerated_lines,
                ok,
            });
        }
    }
    NestSuiteRun {
        rows: results,
        certificates,
        alternatives,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prescribe::Fix;

    #[test]
    fn canonical_nest_suite_is_green() {
        let outcome = run(true);
        assert_eq!(outcome.rows.len(), 28, "14 cases x 2 geometries");
        for r in &outcome.rows {
            assert!(
                r.ok,
                "{} under {}: expected {:?}, got {}",
                r.nest, r.geometry, r.expected, r.verdict
            );
        }
        assert!(outcome.findings.is_empty(), "{:?}", outcome.findings);
        // Interfering rows: vec-pow2-stride/pow2, subblock-ld-pow2/pow2,
        // subblock-erratum both ways, fft-row-stage/pow2,
        // cross-stream-alias/pow2, diag-skew/prime, ld-odd-cols/pow2,
        // ld-unaligned/pow2, and skew-pair both ways — each repaired
        // and re-verified, best and alternatives alike.
        assert_eq!(outcome.certificates.len(), 11);
        assert!(outcome.certificates.iter().all(Certificate::verify));
        assert!(!outcome.alternatives.is_empty());
        assert!(outcome.alternatives.iter().all(Certificate::verify));
    }

    #[test]
    fn every_canonical_row_is_enumeration_free() {
        // The tentpole invariant: the relational domain settles the
        // whole committed suite symbolically — zero materialized lines.
        let outcome = run(false);
        for r in &outcome.rows {
            assert_eq!(
                r.enumerated_lines, 0,
                "{} under {} fell back to enumeration",
                r.nest, r.geometry
            );
        }
    }

    #[test]
    fn huge_nest_row_stays_purely_abstract() {
        let outcome = run(false);
        for r in outcome.rows.iter().filter(|r| r.nest == "huge-reuse") {
            assert!(r.verdict.is_conflict_free());
            assert_eq!(
                r.enumerated_lines, 0,
                "2^32-word nest must be decided without enumeration"
            );
        }
    }

    #[test]
    fn headline_rows_get_the_expected_fix_classes() {
        let outcome = run(true);
        let fix_for = |name: &str, geo: &str| {
            outcome
                .certificates
                .iter()
                .find(|c| c.nest == name && c.original_geometry == geo)
                .map(|c| c.fix)
        };
        // The padded-leading-dimension classic is the cheapest repair.
        assert_eq!(
            fix_for("subblock-ld-pow2", "pow2"),
            Some(Fix::PadLeadingDim {
                from: 8192,
                to: 8193
            })
        );
        // Cross-stream aliasing has no program fix; the paper's cache
        // switch repairs it.
        assert_eq!(
            fix_for("cross-stream-alias", "pow2"),
            Some(Fix::SwitchToPrime { exponent: 13 })
        );
        // The erratum's exact corrected bound b2 = 4 is still certified,
        // as a ranked alternative when a cheaper shrink exists.
        let erratum_b2 = outcome
            .certificates
            .iter()
            .chain(outcome.alternatives.iter())
            .find(|c| {
                c.nest == "subblock-erratum"
                    && c.original_geometry == "prime"
                    && matches!(
                        c.fix,
                        Fix::ShrinkTrip {
                            ref_index: 0,
                            dim: 0,
                            ..
                        }
                    )
            })
            .expect("erratum b2 shrink must be ranked");
        assert_eq!(
            erratum_b2.fix,
            Fix::ShrinkTrip {
                ref_index: 0,
                dim: 0,
                from: 8,
                to: 4
            }
        );
    }

    #[test]
    fn multi_kind_rows_rank_at_least_two_certificates() {
        // Wherever two repair kinds apply, the planner must surface at
        // least two ranked certificates (the acceptance bar for the
        // ranked-alternatives contract).
        let outcome = run(true);
        for (name, geo) in [
            ("vec-pow2-stride", "pow2"),
            ("subblock-erratum", "prime"),
            ("fft-row-stage", "pow2"),
        ] {
            let ranked: Vec<_> = outcome
                .certificates
                .iter()
                .chain(outcome.alternatives.iter())
                .filter(|c| c.nest == name && c.original_geometry == geo)
                .collect();
            assert!(
                ranked.len() >= 2,
                "{name}/{geo}: expected >= 2 ranked certificates, got {ranked:?}"
            );
        }
    }

    #[test]
    fn expected_best_table_covers_every_interfering_row() {
        let outcome = run(false);
        for r in outcome
            .rows
            .iter()
            .filter(|r| !matches!(r.expected, Expect::Free))
        {
            assert!(
                EXPECTED_BEST
                    .iter()
                    .any(|(n, g, _)| *n == r.nest && *g == r.geometry),
                "{}/{} missing from EXPECTED_BEST",
                r.nest,
                r.geometry
            );
        }
    }
}
