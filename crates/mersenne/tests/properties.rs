//! Property-based tests for the Mersenne arithmetic substrate.

use proptest::prelude::*;
use vcache_mersenne::congruence::CrossConflict;
use vcache_mersenne::numtheory::{gcd, lcm, mod_inverse, mod_mul, solve_linear_congruence};
use vcache_mersenne::{FoldingAdder, MersenneModulus, MERSENNE_EXPONENTS};

/// Euclid's remainder loop: the reference the binary `gcd` is pinned to.
fn euclid_gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Zero, powers of two, `u64::MAX`, values with many trailing zeros, and
/// arbitrary values of every magnitude.
fn arb_gcd_operand() -> impl Strategy<Value = u64> {
    (0u8..6, any::<u64>(), 0u32..64).prop_map(|(kind, x, k)| match kind {
        0 => 0,
        1 => 1 << k,
        2 => u64::MAX,
        3 => x << k,
        4 => x >> k,
        _ => x,
    })
}

#[test]
fn gcd_matches_euclid_on_small_pairs_and_every_power_of_two() {
    for a in 0..=300 {
        for b in 0..=300 {
            assert_eq!(gcd(a, b), euclid_gcd(a, b), "gcd({a}, {b})");
        }
    }
    // SplitMix64 from a fixed seed: a reproducible spread of operands,
    // shifted so that every trailing-zero count occurs.
    let mut state = 0x5EED_u64;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for k in 0..64 {
        let p = 1u64 << k;
        for _ in 0..64 {
            let x = next() >> (next() % 64);
            assert_eq!(gcd(p, x), euclid_gcd(p, x), "gcd(2^{k}, {x})");
            assert_eq!(gcd(x, p), euclid_gcd(x, p), "gcd({x}, 2^{k})");
        }
    }
}

fn arb_modulus() -> impl Strategy<Value = MersenneModulus> {
    prop::sample::select(MERSENNE_EXPONENTS.to_vec())
        .prop_map(|c| MersenneModulus::new(c).expect("table exponent"))
}

proptest! {
    #[test]
    fn reduce_agrees_with_hardware_modulo(m in arb_modulus(), x in any::<u64>()) {
        prop_assert_eq!(m.reduce(x), x % m.value());
    }

    #[test]
    fn reduce_is_idempotent(m in arb_modulus(), x in any::<u64>()) {
        let once = m.reduce(x);
        prop_assert_eq!(m.reduce(once), once);
    }

    #[test]
    fn add_is_commutative_and_associative(
        m in arb_modulus(),
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
    ) {
        prop_assert_eq!(m.add(a, b), m.add(b, a));
        prop_assert_eq!(m.add(m.add(a, b), c), m.add(a, m.add(b, c)));
    }

    #[test]
    fn sub_inverts_add(m in arb_modulus(), a in any::<u64>(), b in any::<u64>()) {
        let sum = m.add(a, b);
        prop_assert_eq!(m.sub(sum, b), m.reduce(a));
    }

    #[test]
    fn mul_distributes_over_add(
        m in arb_modulus(),
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
    ) {
        prop_assert_eq!(m.mul(a, m.add(b, c)), m.add(m.mul(a, b), m.mul(a, c)));
    }

    #[test]
    fn folding_adder_agrees_with_modulus(m in arb_modulus(), a in any::<u64>(), b in any::<u64>()) {
        let mut adder = FoldingAdder::for_modulus(m);
        let (a, b) = (a & m.mask(), b & m.mask());
        prop_assert_eq!(adder.add(a, b), m.add(a, b));
    }

    #[test]
    fn fold_address_agrees_with_reduce(m in arb_modulus(), addr in any::<u64>()) {
        let mut adder = FoldingAdder::for_modulus(m);
        let (idx, _) = adder.fold_address(addr);
        prop_assert_eq!(idx, m.reduce(addr));
    }

    #[test]
    fn every_nonzero_residue_is_invertible_mod_prime(m in arb_modulus(), x in 1u64..1_000_000) {
        // Primality of the modulus is what the whole design rests on:
        // any stride not ≡ 0 walks all lines, equivalently is invertible.
        let v = m.value();
        let r = x % v;
        prop_assume!(r != 0);
        let inv = mod_inverse(r, v).expect("prime modulus: inverse exists");
        prop_assert_eq!(mod_mul(r, inv, v), 1);
    }

    #[test]
    fn binary_gcd_matches_euclid(a in arb_gcd_operand(), b in arb_gcd_operand()) {
        prop_assert_eq!(gcd(a, b), euclid_gcd(a, b), "gcd({}, {})", a, b);
    }

    #[test]
    fn gcd_lcm_product_identity(a in 1u64..1_000_000, b in 1u64..1_000_000) {
        prop_assert_eq!(gcd(a, b) as u128 * lcm(a, b) as u128, a as u128 * b as u128);
    }

    #[test]
    fn congruence_solver_matches_brute(a in 0u64..64, b in 0u64..64, m in 1u64..64) {
        let sols = solve_linear_congruence(a, b, m);
        let brute: Vec<u64> = (0..m).filter(|&x| a.wrapping_mul(x) % m == b % m).collect();
        prop_assert_eq!(sols, brute);
    }

    #[test]
    fn cross_conflict_fast_matches_brute(
        s1 in 1u64..32,
        s2 in 1u64..32,
        d in 0u64..32,
        banks in prop::sample::select(vec![4u64, 8, 16, 31, 32]),
        elements in 1u64..48,
        access_time in 1u64..12,
    ) {
        let p = CrossConflict { s1, s2, d, banks, elements, access_time };
        prop_assert_eq!(p.stalls(), p.stalls_brute());
    }

    #[test]
    fn strided_walk_visits_all_lines_when_coprime(m in arb_modulus(), stride in 1u64..100_000) {
        // The headline property of the prime-mapped cache: any stride that is
        // not a multiple of the (prime) line count visits every line once per
        // C elements — no self-interference within a block of size ≤ C.
        let v = m.value();
        prop_assume!(stride % v != 0);
        // Walk min(v, 4096) steps and assert no repeats (full check only for
        // small moduli to keep the test fast).
        let steps = v.min(4096);
        let mut seen = std::collections::HashSet::with_capacity(steps as usize);
        let mut line = 0u64;
        for _ in 0..steps {
            prop_assert!(seen.insert(line), "line {line} repeated before wrap");
            line = m.add(line, stride);
        }
    }
}
