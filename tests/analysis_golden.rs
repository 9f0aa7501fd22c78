//! The analyzer's answers are part of the behaviour contract: every
//! analysis and every repair plan of a seeded loop-nest population, the
//! whole `check` gate report, and Layer 2's full analysis of every
//! canonical program must serialize to exactly the bytes they did when
//! these digests were pinned. A faster solver, a reordered component loop,
//! a new footprint representation or an early exit that changes a
//! verdict, a proof, a witness line, a count or a ranking changes a
//! digest.

use std::path::PathBuf;

use vcache_check::battery;
use vcache_check::suite::{self, EXPONENT};
use vcache_check::{
    analyze_nest, analyze_program, plan, run_check, CheckOptions, Geometry, DEFAULT_MAX_PAD,
};

/// FNV-1a (64-bit) over every serialized analysis and plan, in order.
const PINNED: u64 = 0x937f_f36d_3fda_1d24;

/// FNV-1a over the serialized `run_check` report with every layer but the
/// source scan, and that report's length in bytes.
const PINNED_GATE_REPORT: (u64, usize) = (0x9e99_5ae9_e927_b88e, 39_557);

/// FNV-1a over every serialized `analyze_program` of the canonical suite.
const PINNED_PROGRAM_ANALYSES: u64 = 0xfd84_0191_93ce_c36e;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn seeded_analyses_and_plans_serialize_to_the_pinned_digest() {
    let mut hash = FNV_OFFSET;
    for case in battery::cases(0x5EED, 200) {
        let geometries = [
            Geometry::pow2(1 << case.exponent, case.line_words).unwrap(),
            Geometry::prime(case.exponent, case.line_words).unwrap(),
        ];
        for geometry in geometries {
            let analysis = analyze_nest(&case.nest, &geometry).unwrap();
            fnv1a(
                &mut hash,
                serde_json::to_string(&analysis).unwrap().as_bytes(),
            );
            if !analysis.verdict.is_conflict_free() {
                let plan = plan(&case.nest, &geometry, DEFAULT_MAX_PAD);
                fnv1a(&mut hash, serde_json::to_string(&plan).unwrap().as_bytes());
            }
        }
    }
    assert_eq!(hash, PINNED, "got {hash:#018x}");
}

#[test]
fn the_gate_report_serializes_to_the_pinned_digest() {
    let report = run_check(&CheckOptions {
        root: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
        src: false,
        programs: true,
        nests: true,
        prescribe: true,
        workloads: true,
        probabilistic: true,
    })
    .unwrap();
    let json = serde_json::to_string(&report).unwrap();
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, json.as_bytes());
    assert_eq!(
        (hash, json.len()),
        PINNED_GATE_REPORT,
        "got {hash:#018x} over {} bytes",
        json.len()
    );
}

#[test]
fn canonical_program_analyses_serialize_to_the_pinned_digest() {
    // Unlike the report's suite rows, the full analysis carries the
    // distinct-line, conflict-set and per-access counts.
    let mut hash = FNV_OFFSET;
    for case in suite::cases() {
        let geometries = [
            Geometry::pow2(1 << EXPONENT, case.line_words).unwrap(),
            Geometry::prime(EXPONENT, case.line_words).unwrap(),
        ];
        for geometry in geometries {
            let analysis = analyze_program(&case.program, &geometry).unwrap();
            fnv1a(
                &mut hash,
                serde_json::to_string(&analysis).unwrap().as_bytes(),
            );
        }
    }
    assert_eq!(hash, PINNED_PROGRAM_ANALYSES, "got {hash:#018x}");
}
