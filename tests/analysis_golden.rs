//! Layer 3's answers are part of the behaviour contract: every analysis
//! and every repair plan of a seeded loop-nest population must serialize
//! to exactly the bytes it did when this digest was pinned. A faster
//! solver, a reordered component loop or an early exit that changes a
//! verdict, a proof, a witness line or a ranking changes the digest.

use vcache_check::battery;
use vcache_check::{analyze_nest, plan, Geometry, DEFAULT_MAX_PAD};

/// FNV-1a (64-bit) over every serialized analysis and plan, in order.
const PINNED: u64 = 0x937f_f36d_3fda_1d24;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn seeded_analyses_and_plans_serialize_to_the_pinned_digest() {
    let mut hash = 0xcbf2_9ce4_8422_2325;
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
