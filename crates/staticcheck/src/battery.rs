//! The randomized enumeration-freedom battery: a committed population
//! of seeded random loop nests that the relational domain must decide
//! *without materializing a single line*, run by `vcache check --nests`.
//!
//! Where the canonical nest suite ([`crate::nestsuite`]) pins verdicts
//! for hand-picked shapes, this battery guards the tentpole claim
//! statistically: [`BATTERY_NESTS`] nests drawn from a deterministic
//! generator (mixed benign, aligned, unaligned, and set-resonant
//! strides — the same shape distribution the differential tests replay
//! against the simulator) are analyzed under both mappers, and any
//! enumeration fallback, nonzero `enumerated_lines`, or analysis error
//! is a `VC104` finding. The generator is a plain xorshift so the
//! population is identical on every machine and every run.

use serde::Serialize;

use crate::absint::analyze_nest;
use crate::conflict::Geometry;
use crate::lint::Finding;
use crate::nest::{AffineRef, LoopNest, Term};

/// Seed of the committed battery population.
pub const BATTERY_SEED: u64 = 0x1992_CAC4E;

/// Number of random nests in the battery (each analyzed under both
/// mappers).
pub const BATTERY_NESTS: usize = 1000;

/// One aggregated battery row (per mapper), for reports.
#[derive(Debug, Clone, Serialize)]
pub struct BatteryResult {
    /// Geometry tag (`pow2` / `prime`).
    pub geometry: &'static str,
    /// Nests analyzed under this mapper.
    pub nests: u64,
    /// Conflict-free verdicts.
    pub conflict_free: u64,
    /// Self- or cross-interfering verdicts.
    pub interfering: u64,
    /// Total lines materialized by enumeration fallbacks. The tentpole
    /// gate: must be 0.
    pub enumerated_lines: u64,
    /// Components the relational domain handed back to enumeration.
    pub fallbacks: u64,
    /// Nests the analyzer refused outright.
    pub errors: u64,
    /// Row is green: every nest decided, purely symbolically.
    pub ok: bool,
}

impl BatteryResult {
    fn new(geometry: &'static str) -> Self {
        Self {
            geometry,
            nests: 0,
            conflict_free: 0,
            interfering: 0,
            enumerated_lines: 0,
            fallbacks: 0,
            errors: 0,
            ok: true,
        }
    }
}

/// One generated battery case.
pub struct BatteryCase {
    /// The random nest.
    pub nest: LoopNest,
    /// Mersenne exponent: the mappers are `pow2(2^e)` and `prime(e)`.
    pub exponent: u32,
    /// Words per line.
    pub line_words: u64,
}

/// xorshift64* — deterministic, dependency-free, identical everywhere.
struct BatteryRng(u64);

impl BatteryRng {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish draw from `[0, n)`. The modulo bias is irrelevant
    /// here: the battery needs determinism and spread, not statistics.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Draw from `[lo, hi]`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

/// One random dimension coefficient, mixing benign, aligned, unaligned,
/// and deliberately pathological (set-resonant) strides — the same
/// magnitude classes as the differential harness in `tests/nests.rs`.
fn random_coeff(rng: &mut BatteryRng, sets: u64, line_words: u64) -> i64 {
    let magnitude = match rng.below(5) {
        0 => rng.range(1, 2 * line_words),
        1 => line_words * rng.range(1, 64),
        2 => sets * line_words, // resonates with the pow2 mapper
        3 => (sets - 1) * line_words,
        _ => rng.range(1, 5000),
    };
    let signed = i64::try_from(magnitude).unwrap_or(1);
    if rng.below(5) == 0 {
        -signed
    } else {
        signed
    }
}

/// Generates the deterministic battery population.
#[must_use]
pub fn cases(seed: u64, count: usize) -> Vec<BatteryCase> {
    let mut rng = BatteryRng::new(seed);
    (0..count)
        .map(|case| {
            let exponent = [5u32, 7, 13][usize::try_from(rng.below(3)).unwrap_or(0)];
            let line_words = 1u64 << rng.below(4);
            let sets = 1u64 << exponent;
            let refs = (0..rng.range(1, 3))
                .map(|r| {
                    let terms: Vec<Term> = (0..rng.range(1, 3))
                        .map(|_| Term {
                            coeff: random_coeff(&mut rng, sets, line_words),
                            trip: rng.range(1, 24),
                        })
                        .collect();
                    // Large base keeps negative strides inside the
                    // address space.
                    let base = 50_000_000 + rng.below(1_000_000);
                    let stream = u32::try_from(r % 2).unwrap_or(0);
                    AffineRef::new(base, terms, stream)
                })
                .collect();
            BatteryCase {
                nest: LoopNest::new(format!("battery[{case}]"), refs),
                exponent,
                line_words,
            }
        })
        .collect()
}

/// Runs the committed battery.
///
/// Returns one aggregated row per mapper plus a `VC104` finding per
/// non-green row (with the first offending nest named).
#[must_use]
pub fn run() -> (Vec<BatteryResult>, Vec<Finding>) {
    let mut rows = [BatteryResult::new("pow2"), BatteryResult::new("prime")];
    let mut first_offender: [Option<String>; 2] = [None, None];
    for case in cases(BATTERY_SEED, BATTERY_NESTS) {
        let geometries = [
            Geometry::pow2(1 << case.exponent, case.line_words),
            Geometry::prime(case.exponent, case.line_words),
        ];
        for (slot, geometry) in geometries.into_iter().enumerate() {
            let Ok(geometry) = geometry else {
                // Canonical parameters; cannot fail, but stay total.
                continue;
            };
            let row = &mut rows[slot];
            row.nests += 1;
            match analyze_nest(&case.nest, &geometry) {
                Ok(analysis) => {
                    if analysis.verdict.is_conflict_free() {
                        row.conflict_free += 1;
                    } else {
                        row.interfering += 1;
                    }
                    row.enumerated_lines += analysis.enumerated_lines;
                    row.fallbacks += u64::try_from(analysis.fallback_reasons.len()).unwrap_or(0);
                    if analysis.enumerated_lines > 0 && first_offender[slot].is_none() {
                        let reason = analysis
                            .fallback_reasons
                            .first()
                            .map_or("unknown", |f| f.reason.as_str());
                        first_offender[slot] = Some(format!(
                            "{} enumerated {} lines ({reason})",
                            case.nest.name, analysis.enumerated_lines
                        ));
                    }
                }
                Err(e) => {
                    row.errors += 1;
                    if first_offender[slot].is_none() {
                        first_offender[slot] = Some(format!("{}: {e}", case.nest.name));
                    }
                }
            }
        }
    }
    let mut findings = Vec::new();
    for (slot, row) in rows.iter_mut().enumerate() {
        row.ok = row.enumerated_lines == 0 && row.fallbacks == 0 && row.errors == 0;
        if !row.ok {
            let detail = first_offender[slot].take().unwrap_or_default();
            findings.push(Finding::gate(
                "VC104",
                &format!("battery:{}", row.geometry),
                format!(
                    "random battery under {} is not enumeration-free: \
                     {} lines enumerated, {} fallbacks, {} errors over {} nests; first: {detail}",
                    row.geometry, row.enumerated_lines, row.fallbacks, row.errors, row.nests
                ),
            ));
        }
    }
    (rows.into_iter().collect(), findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_population_is_deterministic() {
        let a = cases(BATTERY_SEED, 10);
        let b = cases(BATTERY_SEED, 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{:?}", x.nest), format!("{:?}", y.nest));
            assert_eq!((x.exponent, x.line_words), (y.exponent, y.line_words));
        }
        // A different seed actually changes the population.
        let c = cases(BATTERY_SEED + 1, 10);
        assert_ne!(format!("{:?}", a[0].nest), format!("{:?}", c[0].nest));
    }

    #[test]
    fn battery_is_enumeration_free_and_both_classes_appear() {
        let (rows, findings) = run();
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.ok, "{row:?}");
            assert_eq!(row.nests, BATTERY_NESTS as u64);
            assert_eq!(row.enumerated_lines, 0, "{row:?}");
            assert_eq!(row.fallbacks, 0, "{row:?}");
            assert_eq!(row.errors, 0, "{row:?}");
            // The population is adversarial enough to exercise both
            // verdict classes under each mapper.
            assert!(row.conflict_free >= 100, "{row:?}");
            assert!(row.interfering >= 100, "{row:?}");
        }
    }
}
