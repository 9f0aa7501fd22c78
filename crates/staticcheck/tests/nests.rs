//! Differential validation of the Layer-3 abstract interpreter and
//! prescriber against the cache simulator.
//!
//! Same oracle as `properties.rs`, lifted to loop nests: lower the nest
//! to a flat program, replay it twice through `CacheSim` ("double
//! sweep"), and compare. For footprints within cache capacity,
//! `ConflictFree` ⟺ zero conflict misses; the forward direction
//! (conflict-free ⇒ zero conflict misses) holds even past capacity.
//! Every repair certificate the prescriber emits is re-verified *and*
//! replayed under its repaired geometry — a certificate is never trusted
//! on the interpreter's word alone.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vcache_cache::CacheSim;
use vcache_check::prescribe::DEFAULT_MAX_PAD;
use vcache_check::{analyze_nest, prescribe, AffineRef, Geometry, LoopNest, Term};

const REPLAY_CAP: u64 = 1 << 20;

/// Builds the simulator matching a static geometry.
fn sim_for(geometry: &Geometry) -> CacheSim {
    let made = match geometry {
        Geometry::Pow2 { sets, line_words } => CacheSim::direct_mapped(*sets, *line_words),
        Geometry::Prime {
            modulus,
            line_words,
        } => CacheSim::prime_mapped(modulus.exponent(), *line_words),
    };
    match made {
        Ok(sim) => sim,
        Err(e) => panic!("simulator for {geometry} failed: {e}"),
    }
}

/// Replays `nest` twice through the simulator for `geometry`; returns
/// `(conflict_misses, distinct_lines)`.
fn replay(nest: &LoopNest, geometry: &Geometry) -> (u64, u64) {
    let Some(program) = nest.to_program(REPLAY_CAP) else {
        panic!("{}: nest too large to lower for replay", nest.name);
    };
    let words: Vec<(u64, u32)> = program.words().collect();
    let lines: BTreeSet<u64> = words
        .iter()
        .map(|(w, _)| w / geometry.line_words())
        .collect();
    let mut sim = sim_for(geometry);
    let conflicts = sim.replay_sweeps(words.iter().copied(), 2);
    (conflicts, lines.len() as u64)
}

/// Checks one (nest, geometry) pair; returns a disagreement description.
fn check_nest(nest: &LoopNest, geometry: &Geometry) -> Result<bool, String> {
    let analysis =
        analyze_nest(nest, geometry).map_err(|e| format!("{}: analysis failed: {e}", nest.name))?;
    let (conflicts, distinct) = replay(nest, geometry);
    let free = analysis.verdict.is_conflict_free();
    let fits = distinct <= geometry.sets();
    if free && conflicts != 0 {
        return Err(format!(
            "{} on {}: statically conflict-free but simulator saw {conflicts} conflict misses",
            nest.name, geometry
        ));
    }
    if !free && fits && conflicts == 0 {
        return Err(format!(
            "{} on {}: statically {} but simulator saw no conflict misses",
            nest.name, geometry, analysis.verdict
        ));
    }
    // The abstract capacity claim must never contradict ground truth.
    match analysis.fits_capacity {
        Some(true) if !fits => {
            return Err(format!(
                "{} on {}: claims to fit but has {distinct} distinct lines",
                nest.name, geometry
            ));
        }
        Some(false) if fits => {
            return Err(format!(
                "{} on {}: claims overflow but has only {distinct} distinct lines",
                nest.name, geometry
            ));
        }
        _ => {}
    }
    Ok(free)
}

/// When the nest interferes, the prescriber's certificate (if any) must
/// re-verify and replay clean under its repaired geometry.
fn check_certificate(nest: &LoopNest, geometry: &Geometry) -> Result<bool, String> {
    let Some(cert) = prescribe(nest, geometry, DEFAULT_MAX_PAD) else {
        return Ok(false);
    };
    if !cert.verify() {
        return Err(format!(
            "{} on {}: certificate '{}' fails re-verification",
            nest.name, geometry, cert.fix
        ));
    }
    let (conflicts, _) = replay(&cert.fixed_nest, &cert.fixed_geometry);
    if conflicts != 0 {
        return Err(format!(
            "{} on {}: certificate '{}' replayed with {conflicts} conflict misses",
            nest.name, geometry, cert.fix
        ));
    }
    Ok(true)
}

/// One random dimension coefficient, mixing benign, aligned, unaligned,
/// and deliberately pathological (set-resonant) strides.
fn random_coeff(rng: &mut StdRng, sets: u64, line_words: u64) -> i64 {
    let magnitude = match rng.random_range(0..5u64) {
        0 => rng.random_range(1..=2 * line_words),
        1 => line_words * rng.random_range(1..=64u64),
        2 => sets * line_words, // resonates with the pow2 mapper
        3 => (sets - 1) * line_words,
        _ => rng.random_range(1..=5000u64),
    };
    let signed = i64::try_from(magnitude).unwrap_or(1);
    if rng.random_range(0..5u64) == 0 {
        -signed
    } else {
        signed
    }
}

fn random_nest(rng: &mut StdRng, case: usize, sets: u64, line_words: u64) -> LoopNest {
    let refs = (0..rng.random_range(1..=3u64))
        .map(|r| {
            let terms: Vec<Term> = (0..rng.random_range(1..=3u64))
                .map(|_| Term {
                    coeff: random_coeff(rng, sets, line_words),
                    trip: rng.random_range(1..=24u64),
                })
                .collect();
            // Large base keeps negative strides inside the address space.
            let base = 50_000_000 + rng.random_range(0..1_000_000u64);
            let stream = u32::try_from(r % 2).unwrap_or(0);
            AffineRef::new(base, terms, stream)
        })
        .collect();
    LoopNest::new(format!("rand-nest[{case}]"), refs)
}

#[test]
fn random_nest_verdicts_agree_with_simulator() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0E57);
    let (mut checked, mut free_seen, mut conflict_seen) = (0u64, 0u64, 0u64);
    for case in 0..220usize {
        let exponent = [5u32, 7, 13][rng.random_range(0..3u64) as usize];
        let line_words = 1u64 << rng.random_range(0..4u64);
        let sets_pow2 = 1u64 << exponent;
        let nest = random_nest(&mut rng, case, sets_pow2, line_words);
        let geometries = [
            Geometry::pow2(sets_pow2, line_words),
            Geometry::prime(exponent, line_words),
        ];
        for geometry in geometries {
            let geometry = match geometry {
                Ok(g) => g,
                Err(e) => panic!("case {case}: bad geometry: {e}"),
            };
            match check_nest(&nest, &geometry) {
                Ok(true) => free_seen += 1,
                Ok(false) => conflict_seen += 1,
                Err(msg) => panic!("case {case}: {msg}"),
            }
            checked += 1;
        }
    }
    // The acceptance bar: at least 200 random nest/geometry pairs
    // validated against ground truth, with both verdict classes
    // well represented.
    assert!(checked >= 200, "only {checked} pairs checked");
    assert!(free_seen >= 20, "only {free_seen} conflict-free pairs");
    assert!(
        conflict_seen >= 20,
        "only {conflict_seen} interfering pairs"
    );
}

/// The committed enumeration-freedom battery, differentially validated:
/// every one of its nests must (a) decide with zero enumerated lines and
/// no fallback under both mappers, and (b) agree with the simulator —
/// `ConflictFree` ⟺ zero conflict misses for footprints within capacity,
/// and conflict-free ⇒ clean replay unconditionally. This is the ground
/// truth behind the `vcache check --nests` battery rows: the interval
/// and congruence rules are not just self-consistent, they match the
/// machine.
#[test]
fn battery_nests_decide_symbolically_and_agree_with_simulator() {
    use vcache_check::battery::{cases, BATTERY_NESTS, BATTERY_SEED};
    let (mut free_seen, mut conflict_seen) = (0u64, 0u64);
    for case in cases(BATTERY_SEED, BATTERY_NESTS) {
        let geometries = [
            Geometry::pow2(1 << case.exponent, case.line_words),
            Geometry::prime(case.exponent, case.line_words),
        ];
        for geometry in geometries {
            let geometry = match geometry {
                Ok(g) => g,
                Err(e) => panic!("{}: bad geometry: {e}", case.nest.name),
            };
            let analysis = match analyze_nest(&case.nest, &geometry) {
                Ok(a) => a,
                Err(e) => panic!("{}: analysis failed: {e}", case.nest.name),
            };
            assert_eq!(
                analysis.enumerated_lines, 0,
                "{} on {}: battery nest fell back to enumeration",
                case.nest.name, geometry
            );
            assert!(
                analysis.fallback_reasons.is_empty(),
                "{} on {}: {:?}",
                case.nest.name,
                geometry,
                analysis.fallback_reasons
            );
            match check_nest(&case.nest, &geometry) {
                Ok(true) => free_seen += 1,
                Ok(false) => conflict_seen += 1,
                Err(msg) => panic!("{msg}"),
            }
        }
    }
    assert!(free_seen >= 100, "only {free_seen} conflict-free pairs");
    assert!(
        conflict_seen >= 100,
        "only {conflict_seen} interfering pairs"
    );
}

#[test]
fn random_certificates_replay_clean() {
    let mut rng = StdRng::seed_from_u64(0xCE47);
    let mut repaired = 0u64;
    for case in 0..60usize {
        let exponent = [5u32, 7, 13][rng.random_range(0..3u64) as usize];
        let line_words = 1u64 << rng.random_range(0..3u64);
        let sets_pow2 = 1u64 << exponent;
        let nest = random_nest(&mut rng, case, sets_pow2, line_words);
        let geometries = [
            Geometry::pow2(sets_pow2, line_words),
            Geometry::prime(exponent, line_words),
        ];
        for geometry in geometries {
            let geometry = match geometry {
                Ok(g) => g,
                Err(e) => panic!("case {case}: bad geometry: {e}"),
            };
            match check_certificate(&nest, &geometry) {
                Ok(true) => repaired += 1,
                Ok(false) => {}
                Err(msg) => panic!("case {case}: {msg}"),
            }
        }
    }
    assert!(repaired >= 10, "only {repaired} certificates exercised");
}

/// Every certificate the planner ranks — best and alternatives alike —
/// must re-verify and replay clean through the simulator under its
/// repaired geometry, for every interfering canonical nest row. Costs
/// must ascend in ranking order, and rows where more than one repair
/// kind applies must rank at least two certificates, so callers really
/// are choosing between repairs, not rubber-stamping a single one.
#[test]
fn every_ranked_canonical_certificate_replays_clean() {
    use vcache_check::nestsuite::cases;
    use vcache_check::plan;
    use vcache_check::suite::EXPONENT;
    let mut ranked_total = 0u64;
    let mut multi_kind_rows = 0u64;
    for case in cases() {
        let geometries = [
            Geometry::pow2(1 << EXPONENT, case.line_words),
            Geometry::prime(EXPONENT, case.line_words),
        ];
        for geometry in geometries {
            let geometry = match geometry {
                Ok(g) => g,
                Err(e) => panic!("{}: bad geometry: {e}", case.nest.name),
            };
            let Some(planned) = plan(&case.nest, &geometry, DEFAULT_MAX_PAD) else {
                continue; // conflict-free row: nothing to repair
            };
            assert!(
                !planned.ranked.is_empty(),
                "{} on {}: interfering but the planner ranked nothing",
                case.nest.name,
                geometry
            );
            for pair in planned.ranked.windows(2) {
                assert!(
                    pair[0].cost <= pair[1].cost,
                    "{} on {}: ranking not cheapest-first ({} > {})",
                    case.nest.name,
                    geometry,
                    pair[0].cost,
                    pair[1].cost
                );
            }
            let kinds: BTreeSet<&str> = planned
                .ranked
                .iter()
                .map(|c| match c.fix {
                    vcache_check::prescribe::Fix::PadLeadingDim { .. } => "pad",
                    vcache_check::prescribe::Fix::ShrinkTrip { .. } => "shrink",
                    vcache_check::prescribe::Fix::SwitchToPrime { .. }
                    | vcache_check::prescribe::Fix::BumpExponent { .. } => "geometry",
                })
                .collect();
            if kinds.len() >= 2 {
                assert!(
                    planned.ranked.len() >= 2,
                    "{} on {}: {} repair kinds apply but only one certificate ranked",
                    case.nest.name,
                    geometry,
                    kinds.len()
                );
                multi_kind_rows += 1;
            }
            for cert in &planned.ranked {
                assert!(
                    cert.verify(),
                    "{} on {}: ranked '{}' fails re-verification",
                    case.nest.name,
                    geometry,
                    cert.fix
                );
                let (conflicts, _) = replay(&cert.fixed_nest, &cert.fixed_geometry);
                assert_eq!(
                    conflicts, 0,
                    "{} on {}: ranked '{}' replayed with {conflicts} conflict misses",
                    case.nest.name, geometry, cert.fix
                );
                ranked_total += 1;
            }
        }
    }
    assert!(
        ranked_total >= 20,
        "only {ranked_total} ranked certificates replayed"
    );
    assert!(
        multi_kind_rows >= 3,
        "only {multi_kind_rows} rows offered a multi-kind choice"
    );
}

/// Word-set (per stream) of a flat program.
fn program_word_set(program: &vcache_workloads::Program) -> BTreeSet<(u64, u32)> {
    program.words().collect()
}

/// Word-set (per stream) of a lowered nest.
fn nest_word_set(nest: &LoopNest) -> BTreeSet<(u64, u32)> {
    let Some(program) = nest.to_program(REPLAY_CAP) else {
        panic!("{}: nest too large to lower", nest.name);
    };
    program.words().collect()
}

/// The matmul lowering must touch exactly the words the traced kernel
/// touches (per stream), and its static verdict must agree with the
/// simulator under both geometries.
#[test]
fn blocked_matmul_nest_matches_the_traced_kernel() {
    use vcache_workloads::blocked_matmul_trace;
    for (n, b) in [(16u64, 4u64), (24, 8), (32, 8)] {
        let nest = LoopNest::blocked_matmul(n, b);
        let trace = blocked_matmul_trace(n, b);
        assert_eq!(
            nest_word_set(&nest),
            program_word_set(&trace),
            "n={n} b={b}: lowered word set differs from the traced kernel"
        );
        for geometry in [Geometry::pow2(32, 8), Geometry::prime(5, 8)] {
            let geometry = match geometry {
                Ok(g) => g,
                Err(e) => panic!("n={n}: bad geometry: {e}"),
            };
            if let Err(msg) = check_nest(&nest, &geometry) {
                panic!("n={n} b={b}: {msg}");
            }
        }
    }
}

/// Same for transpose, including the paper's hostile case: a
/// power-of-two row count resonates with the pow2 mapper through the
/// stride-`q` write stream, while the prime mapper stays clean.
#[test]
fn transpose_nest_matches_the_traced_kernel() {
    use vcache_workloads::transpose_trace;
    for (p, q) in [(8u64, 4u64), (32, 32), (64, 16), (17, 9)] {
        let nest = LoopNest::transpose(0, 1 << 20, p, q);
        let trace = transpose_trace(0, 1 << 20, p, q);
        assert_eq!(
            nest_word_set(&nest),
            program_word_set(&trace),
            "p={p} q={q}: lowered word set differs from the traced kernel"
        );
        for geometry in [Geometry::pow2(32, 8), Geometry::prime(5, 8)] {
            let geometry = match geometry {
                Ok(g) => g,
                Err(e) => panic!("p={p}: bad geometry: {e}"),
            };
            if let Err(msg) = check_nest(&nest, &geometry) {
                panic!("p={p} q={q}: {msg}");
            }
        }
    }
    // The signature pathology: stride-q writes with q a multiple of the
    // pow2 set count fold onto few sets; the prime mapping spreads them.
    let hostile = LoopNest::transpose(0, 1 << 20, 64, 256);
    let pow2 = match Geometry::pow2(32, 8) {
        Ok(g) => g,
        Err(e) => panic!("{e}"),
    };
    let prime = match Geometry::prime(5, 8) {
        Ok(g) => g,
        Err(e) => panic!("{e}"),
    };
    let on_pow2 = match analyze_nest(&hostile, &pow2) {
        Ok(a) => a,
        Err(e) => panic!("{e}"),
    };
    let on_prime = match analyze_nest(&hostile, &prime) {
        Ok(a) => a,
        Err(e) => panic!("{e}"),
    };
    assert!(
        !on_pow2.verdict.is_conflict_free(),
        "resonant transpose should interfere under pow2"
    );
    // The same footprint is too large to be conflict-free in a 32-set
    // cache either way, but the prime verdict must still agree with its
    // own simulator replay.
    if let Err(msg) = check_nest(&hostile, &prime) {
        panic!("hostile transpose on prime: {msg}");
    }
    let _ = on_prime;
}

#[test]
fn subblock_nests_match_the_section4_rule_end_to_end() {
    use vcache_core::blocking::{is_conflict_free, SubBlockPlan};
    use vcache_mersenne::MersenneModulus;
    let m = match MersenneModulus::new(13) {
        Ok(m) => m,
        Err(e) => panic!("{e}"),
    };
    let geometry = match Geometry::prime(13, 1) {
        Ok(g) => g,
        Err(e) => panic!("{e}"),
    };
    for (p, b1, b2) in [
        (10_000u64, 1000u64, 4u64),
        (10_000, 1000, 8), // the paper's §4 erratum
        (8192, 1, 4096),
        (20_000, 1809, 4),
    ] {
        let plan = SubBlockPlan {
            b1,
            b2,
            cache_lines: m.value(),
        };
        let nest = LoopNest::subblock(format!("sb[{p},{b1},{b2}]"), 0, p, &plan, 0);
        let analysis = match analyze_nest(&nest, &geometry) {
            Ok(a) => a,
            Err(e) => panic!("p={p}: {e}"),
        };
        assert_eq!(
            analysis.verdict.is_conflict_free(),
            is_conflict_free(p, b1, b2, m),
            "p={p} b1={b1} b2={b2}: static nest verdict vs closed-form rule"
        );
        let (conflicts, distinct) = replay(&nest, &geometry);
        if analysis.verdict.is_conflict_free() {
            assert_eq!(conflicts, 0, "p={p}: free but {conflicts} conflicts");
        } else if distinct <= geometry.sets() {
            assert!(conflicts > 0, "p={p}: interfering but replay is clean");
        }
    }
}
