//! The canonical verdict suite: committed (program, geometry) pairs with
//! their expected static verdicts, run by `vcache check --programs`.
//!
//! Each case pins one claim of the paper to an executable expectation:
//! power-of-two strides defeat the conventional mapper but not the
//! Mersenne one (Eq. 8), strides ≡ 0 (mod 2^c − 1) are the prime mapper's
//! only bad class, a `b1 × b2` sub-block chosen by the §4 rule is
//! conflict-free under the prime mapper while overlapping under pow2, and
//! aliased base addresses produce cross-stream interference only where the
//! index functions collide. A verdict that drifts from the table is a
//! `VC100` finding — the static analyzer or the workload generators
//! changed meaning.

use serde::Serialize;
use vcache_workloads::{subblock_trace, Program, VectorAccess};

use crate::conflict::{analyze_program, Geometry, Verdict};
use crate::lint::Finding;

/// Canonical geometry: `c = 13` — 8191 prime sets vs 8192 pow2 sets.
pub const EXPONENT: u32 = 13;

/// The canonical geometry pair every suite driver runs, pow2 first:
/// `2^EXPONENT` pow2 sets and `2^EXPONENT − 1` prime sets, both with
/// `line_words`-word lines.
///
/// # Panics
///
/// Panics only on a line size no geometry accepts, which would be a
/// programming error in a committed table.
pub(crate) fn canonical_geometries(line_words: u64) -> [Geometry; 2] {
    [
        Geometry::pow2(1 << EXPONENT, line_words),
        Geometry::prime(EXPONENT, line_words),
    ]
    .map(|geometry| match geometry {
        Ok(g) => g,
        Err(e) => unreachable!("canonical geometry invalid: {e}"),
    })
}

/// Coarse expected verdict (the detail fields are checked by the property
/// tests against the simulator, not here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Expect {
    /// [`Verdict::ConflictFree`].
    Free,
    /// [`Verdict::SelfInterfering`].
    SelfInt,
    /// [`Verdict::CrossInterfering`].
    CrossInt,
}

impl Expect {
    fn matches(self, verdict: &Verdict) -> bool {
        matches!(
            (self, verdict),
            (Self::Free, Verdict::ConflictFree)
                | (Self::SelfInt, Verdict::SelfInterfering { .. })
                | (Self::CrossInt, Verdict::CrossInterfering { .. })
        )
    }
}

/// One suite case: a program plus expected verdicts under both mappers.
pub struct SuiteCase {
    /// The program under analysis.
    pub program: Program,
    /// Words per line for this case.
    pub line_words: u64,
    /// Expected verdict under the power-of-two mapper (8192 sets).
    pub expect_pow2: Expect,
    /// Expected verdict under the Mersenne mapper (8191 sets).
    pub expect_prime: Expect,
}

/// One evaluated row of the suite, for reports.
#[derive(Debug, Clone, Serialize)]
pub struct SuiteResult {
    /// Program name.
    pub program: String,
    /// Geometry tag.
    pub geometry: &'static str,
    /// What the table expects.
    pub expected: Expect,
    /// What the analyzer concluded.
    pub verdict: Verdict,
    /// `expected` matches `verdict`.
    pub ok: bool,
}

/// Builds the committed suite.
///
/// # Panics
///
/// Panics only if the canonical geometries themselves are invalid, which
/// would be a programming error in this module.
#[must_use]
pub fn cases() -> Vec<SuiteCase> {
    let prime_sets = (1u64 << EXPONENT) - 1; // 8191
    vec![
        // Unit stride fits 512 lines into the first sets of either mapper.
        SuiteCase {
            program: Program::new("unit-stride", vec![VectorAccess::single(0, 1, 4096, 0)]),
            line_words: 8,
            expect_pow2: Expect::Free,
            expect_prime: Expect::Free,
        },
        // Line stride 512: orbit 16 under 8192 sets (self-interference),
        // orbit 8191 under the prime mapper (Eq. 8: gcd(8191, 512) = 1).
        SuiteCase {
            program: Program::new(
                "pow2-pathological-stride",
                vec![VectorAccess::single(0, 4096, 8191, 0)],
            ),
            line_words: 8,
            expect_pow2: Expect::SelfInt,
            expect_prime: Expect::Free,
        },
        // Line stride 8191 ≡ 0 (mod 8191): the prime mapper's only bad
        // stride class pins every line to one set; gcd(8191, 8192) = 1
        // keeps the pow2 mapper conflict-free.
        SuiteCase {
            program: Program::new(
                "prime-resonant-stride",
                vec![VectorAccess::single(0, prime_sets as i64 * 8, 64, 0)],
            ),
            line_words: 8,
            expect_pow2: Expect::Free,
            expect_prime: Expect::SelfInt,
        },
        // §4 sub-block rule for a P = 10000 column matrix at C = 8191:
        // P mod C = 1809, so b1 = 1809 columns x b2 = ⌊C/b1⌋ = 4 rows is
        // conflict-free under the prime mapper. Under 8192 sets,
        // P mod 8192 = 1808 < b1 makes adjacent rows overlap by one set.
        SuiteCase {
            program: subblock_trace(0, 10_000, 8, (0, 0), (1809, 4), 0),
            line_words: 1,
            expect_pow2: Expect::SelfInt,
            expect_prime: Expect::Free,
        },
        // Two unit-stride streams whose bases differ by 8 * 8192 lines:
        // the pow2 index aliases them onto sets 0..7, while the prime
        // index puts the second stream at 8 * 8192 mod 8191 = 8, i.e.
        // sets 8..15 — disjoint.
        SuiteCase {
            program: Program::new(
                "cross-stream-alias",
                vec![
                    VectorAccess::single(0, 1, 64, 0),
                    VectorAccess::single(8 * 8192 * 8, 1, 64, 1),
                ],
            ),
            line_words: 8,
            expect_pow2: Expect::CrossInt,
            expect_prime: Expect::Free,
        },
    ]
}

/// Runs the suite, returning every row and a `VC100` finding per mismatch.
///
/// # Panics
///
/// Panics only if a canonical case exceeds the analysis size bound, which
/// would be a programming error in this module (the committed cases are
/// all far below it).
#[must_use]
pub fn run() -> (Vec<SuiteResult>, Vec<Finding>) {
    let mut results = Vec::new();
    let mut findings = Vec::new();
    for case in cases() {
        let expectations = [case.expect_pow2, case.expect_prime];
        for (geometry, expected) in canonical_geometries(case.line_words)
            .into_iter()
            .zip(expectations)
        {
            let analysis = match analyze_program(&case.program, &geometry) {
                Ok(a) => a,
                Err(e) => unreachable!("canonical case too large: {e}"),
            };
            let ok = expected.matches(&analysis.verdict);
            if !ok {
                findings.push(Finding::gate(
                    "VC100",
                    &format!("suite:{}", case.program.name),
                    format!(
                        "verdict drift under {geometry}: expected {expected:?}, analyzer says {}",
                        analysis.verdict
                    ),
                ));
            }
            results.push(SuiteResult {
                program: case.program.name.clone(),
                geometry: analysis.geometry,
                expected,
                verdict: analysis.verdict,
                ok,
            });
        }
    }
    (results, findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_suite_is_green() {
        let (results, findings) = run();
        assert_eq!(results.len(), 10, "5 cases x 2 geometries");
        for r in &results {
            assert!(
                r.ok,
                "{} under {}: expected {:?}, got {}",
                r.program, r.geometry, r.expected, r.verdict
            );
        }
        assert!(findings.is_empty());
    }

    #[test]
    fn drift_produces_vc100() {
        // Simulate drift by checking a deliberately wrong expectation.
        let verdict = Verdict::ConflictFree;
        assert!(!Expect::SelfInt.matches(&verdict));
        assert!(Expect::Free.matches(&verdict));
    }

    #[test]
    fn subblock_case_matches_section4_rule() {
        // b1 = min(P mod C, C - P mod C), b2 = ⌊C / b1⌋ for P = 10000.
        let c = (1u64 << EXPONENT) - 1;
        let p = 10_000u64;
        let r = p % c;
        let b1 = r.min(c - r);
        assert_eq!(b1, 1809);
        assert_eq!(c / b1, 4);
    }
}
