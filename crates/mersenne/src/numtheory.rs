//! Number-theoretic helpers used throughout the analytical model.
//!
//! The paper's stall formulas are built from `gcd` (how many banks/lines a
//! strided sweep visits), the divisor-counting argument ("the number of
//! strides `s ≤ M` with `gcd(M, s) = 2^i` is `M / 2^(i+1)`"), and linear
//! congruences (when do two interleaved streams collide). These are the
//! exact functions implemented here, plus a deterministic primality test
//! used to validate the Mersenne exponent table.

/// Greatest common divisor, by Stein's binary algorithm: shifts and
/// subtractions, no division.
///
/// `gcd(0, 0)` is defined as 0.
///
/// # Example
///
/// ```
/// use vcache_mersenne::numtheory::gcd;
/// assert_eq!(gcd(32, 12), 4);
/// assert_eq!(gcd(8191, 8192), 1); // Mersenne prime vs its power of two
/// ```
#[must_use]
pub fn gcd(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    // The common power of two, then the odd parts by repeated
    // subtraction: the difference of two odd numbers is even, so each
    // step strips at least one bit. A power-of-two argument has odd part
    // 1, so the common power of two is the whole answer.
    let shift = (a | b).trailing_zeros();
    if a.is_power_of_two() || b.is_power_of_two() {
        return 1 << shift;
    }
    let mut a = a >> a.trailing_zeros();
    let mut b = b >> b.trailing_zeros();
    while a != b {
        if a > b {
            core::mem::swap(&mut a, &mut b);
        }
        b -= a;
        b >>= b.trailing_zeros();
    }
    a << shift
}

/// Least common multiple. Returns 0 if either argument is 0.
///
/// # Panics
///
/// Panics if the result would overflow `u64`.
#[must_use]
pub fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return 0;
    }
    a / gcd(a, b) * b
}

/// Extended Euclid: returns `(g, x, y)` with `a*x + b*y = g = gcd(a, b)`.
///
/// # Example
///
/// ```
/// use vcache_mersenne::numtheory::extended_gcd;
/// let (g, x, y) = extended_gcd(240, 46);
/// assert_eq!(g, 2);
/// assert_eq!(240 * x + 46 * y, 2);
/// ```
#[must_use]
pub fn extended_gcd(a: i64, b: i64) -> (i64, i64, i64) {
    if b == 0 {
        let sign = if a < 0 { -1 } else { 1 };
        return (a.abs(), sign, 0);
    }
    let (g, x1, y1) = extended_gcd(b, a % b);
    (g, y1, x1 - (a / b) * y1)
}

/// Modular inverse of `a` modulo `m`, if it exists (`gcd(a, m) = 1`).
///
/// # Example
///
/// ```
/// use vcache_mersenne::numtheory::mod_inverse;
/// assert_eq!(mod_inverse(3, 31), Some(21)); // 3 * 21 = 63 ≡ 1 (mod 31)
/// assert_eq!(mod_inverse(4, 32), None);
/// ```
#[must_use]
pub fn mod_inverse(a: u64, m: u64) -> Option<u64> {
    if m == 0 {
        return None;
    }
    if m == 1 {
        return Some(0);
    }
    let (g, x, _) = extended_gcd((a % m) as i64, m as i64);
    if g != 1 {
        return None;
    }
    Some(x.rem_euclid(m as i64) as u64)
}

/// All solutions `x` in `[0, m)` of `a*x ≡ b (mod m)`.
///
/// There are `gcd(a, m)` solutions when `gcd(a, m)` divides `b`, else none.
/// The solutions are returned in increasing order.
///
/// # Example
///
/// ```
/// use vcache_mersenne::numtheory::solve_linear_congruence;
/// // 6x ≡ 4 (mod 8): gcd(6,8)=2 divides 4 → two solutions.
/// assert_eq!(solve_linear_congruence(6, 4, 8), vec![2, 6]);
/// // 2x ≡ 1 (mod 4): gcd(2,4)=2 does not divide 1 → none.
/// assert!(solve_linear_congruence(2, 1, 4).is_empty());
/// ```
///
/// # Panics
///
/// Panics if `m == 0`.
#[must_use]
pub fn solve_linear_congruence(a: u64, b: u64, m: u64) -> Vec<u64> {
    assert!(m > 0, "modulus must be positive");
    let a = a % m;
    let b = b % m;
    let g = gcd(a, m);
    if g == 0 {
        // a ≡ 0: solutions exist iff b ≡ 0, and then every x works.
        return if b == 0 { (0..m).collect() } else { Vec::new() };
    }
    if !b.is_multiple_of(g) {
        return Vec::new();
    }
    let m_red = m / g;
    let a_red = a / g;
    let b_red = b / g;
    // gcd(a/g, m/g) = 1 by construction (g = gcd(a, m)), so the inverse
    // always exists; treat the impossible failure as "no solutions"
    // rather than panicking.
    let Some(inv) = mod_inverse(a_red, m_red) else {
        return Vec::new();
    };
    let x0 = (u128::from(inv) * u128::from(b_red) % u128::from(m_red)) as u64;
    (0..g).map(|k| x0 + k * m_red).collect()
}

/// Deterministic primality test for `u64` (trial division by small primes,
/// then deterministic Miller–Rabin witnesses valid for all 64-bit inputs).
///
/// # Example
///
/// ```
/// use vcache_mersenne::numtheory::is_prime;
/// assert!(is_prime(8191));            // 2^13 - 1, Mersenne prime
/// assert!(!is_prime(2047));           // 2^11 - 1 = 23 * 89
/// assert!(is_prime((1 << 31) - 1));   // 2^31 - 1
/// ```
#[must_use]
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    // Miller-Rabin with a witness set proven complete for u64.
    let d = n - 1;
    let s = d.trailing_zeros();
    let d = d >> s;
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = mod_pow(a % n, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 1..s {
            x = mod_mul(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Modular multiplication avoiding overflow via `u128`.
#[must_use]
pub fn mod_mul(a: u64, b: u64, m: u64) -> u64 {
    (u128::from(a) * u128::from(b) % u128::from(m)) as u64
}

/// Modular exponentiation by squaring.
///
/// # Panics
///
/// Panics if `m == 0`.
#[must_use]
pub fn mod_pow(mut base: u64, mut exp: u64, m: u64) -> u64 {
    assert!(m > 0, "modulus must be positive");
    if m == 1 {
        return 0;
    }
    let mut acc = 1u64;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mod_mul(acc, base, m);
        }
        base = mod_mul(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Number of strides `s` in `[1, m]` with `gcd(m, s) = d`, for `m` a power
/// of two and `d | m`.
///
/// This is the counting step in the paper's `I_s^M` and `I_s^C`
/// derivations: for `m = 2^k` and `d = 2^i < m` the count is `m / 2^(i+1)`
/// (the odd multiples of `2^i` up to `m`), and exactly one stride (`s = m`)
/// has `gcd = m`.
///
/// # Panics
///
/// Panics if `m` is not a power of two or `d` does not divide `m`.
///
/// # Example
///
/// ```
/// use vcache_mersenne::numtheory::strides_with_gcd_pow2;
/// // Among s = 1..=32: 16 odd strides have gcd 1 with 32.
/// assert_eq!(strides_with_gcd_pow2(32, 1), 16);
/// assert_eq!(strides_with_gcd_pow2(32, 2), 8);
/// assert_eq!(strides_with_gcd_pow2(32, 32), 1);
/// ```
#[must_use]
pub fn strides_with_gcd_pow2(m: u64, d: u64) -> u64 {
    assert!(m.is_power_of_two(), "m must be a power of two");
    assert!(d > 0 && m.is_multiple_of(d), "d must divide m");
    if d == m {
        1
    } else {
        m / (2 * d)
    }
}

/// `gcd` over `u128`, for exact rational arithmetic.
///
/// # Example
///
/// ```
/// use vcache_mersenne::numtheory::gcd_u128;
/// assert_eq!(gcd_u128(1 << 70, 3 << 68), 1 << 68);
/// ```
#[must_use]
pub fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// `base^exp` over `u128`, or `None` on overflow. The probabilistic
/// analyzer uses this to decide whether a collision statistic is still
/// exactly representable (`L^n` must fit) before falling back to
/// deterministically-rounded floats.
///
/// # Example
///
/// ```
/// use vcache_mersenne::numtheory::checked_pow_u128;
/// assert_eq!(checked_pow_u128(8, 4), Some(4096));
/// assert_eq!(checked_pow_u128(2, 127), Some(1u128 << 127));
/// assert_eq!(checked_pow_u128(2, 128), None);
/// ```
#[must_use]
pub fn checked_pow_u128(base: u128, exp: u32) -> Option<u128> {
    let mut acc: u128 = 1;
    for _ in 0..exp {
        acc = acc.checked_mul(base)?;
    }
    Some(acc)
}

/// An exact non-negative rational with 128-bit numerator and denominator,
/// always stored reduced. The arithmetic is *checked*: any operation that
/// would overflow returns `None`, which callers treat as "too large for
/// the exact path" and hand off to floats.
///
/// # Example
///
/// ```
/// use vcache_mersenne::numtheory::Ratio;
/// let third = Ratio::new(2, 6).unwrap();
/// assert_eq!((third.num, third.den), (1, 3));
/// let one = third.checked_add(Ratio::new(2, 3).unwrap()).unwrap();
/// assert_eq!(one, Ratio::from_int(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ratio {
    /// Reduced numerator.
    pub num: u128,
    /// Reduced denominator (never zero).
    pub den: u128,
}

impl Ratio {
    /// Builds `num/den` reduced, or `None` when `den == 0`.
    #[must_use]
    pub fn new(num: u128, den: u128) -> Option<Self> {
        if den == 0 {
            return None;
        }
        let g = gcd_u128(num, den);
        if g == 0 {
            return Some(Self { num: 0, den: 1 });
        }
        Some(Self {
            num: num / g,
            den: den / g,
        })
    }

    /// The integer `n` as a ratio.
    #[must_use]
    pub fn from_int(n: u128) -> Self {
        Self { num: n, den: 1 }
    }

    /// Checked sum.
    #[must_use]
    pub fn checked_add(self, other: Self) -> Option<Self> {
        let g = gcd_u128(self.den, other.den);
        let den = (self.den / g).checked_mul(other.den)?;
        let a = self.num.checked_mul(other.den / g)?;
        let b = other.num.checked_mul(self.den / g)?;
        Self::new(a.checked_add(b)?, den)
    }

    /// Checked difference, or `None` when the result would be negative
    /// (these ratios model probabilities and expectations, which stay
    /// non-negative).
    #[must_use]
    pub fn checked_sub(self, other: Self) -> Option<Self> {
        let g = gcd_u128(self.den, other.den);
        let den = (self.den / g).checked_mul(other.den)?;
        let a = self.num.checked_mul(other.den / g)?;
        let b = other.num.checked_mul(self.den / g)?;
        Self::new(a.checked_sub(b)?, den)
    }

    /// Checked product.
    #[must_use]
    pub fn checked_mul(self, other: Self) -> Option<Self> {
        // Cross-reduce first so intermediate products stay small.
        let g1 = gcd_u128(self.num, other.den);
        let g2 = gcd_u128(other.num, self.den);
        let num = (self.num / g1).checked_mul(other.num / g2)?;
        let den = (self.den / g2).checked_mul(other.den / g1)?;
        Self::new(num, den)
    }

    /// Checked `self^exp`.
    #[must_use]
    pub fn pow(self, exp: u32) -> Option<Self> {
        let mut acc = Self::from_int(1);
        for _ in 0..exp {
            acc = acc.checked_mul(self)?;
        }
        Some(acc)
    }

    /// Nearest-`f64` value (two correctly-rounded conversions and one
    /// division — deterministic across platforms for the magnitudes the
    /// analyzer produces). This is the recorded "nearest" rounding step
    /// when an exact result leaves the rational domain.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 31), 1);
        assert_eq!(gcd(u64::MAX, u64::MAX), u64::MAX);
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(lcm(0, 7), 0);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(8191, 8192), 8191 * 8192);
    }

    #[test]
    fn extended_gcd_identity_holds() {
        for (a, b) in [
            (240i64, 46),
            (46, 240),
            (-240, 46),
            (7, 0),
            (0, 7),
            (0, 0),
            (-5, -15),
        ] {
            let (g, x, y) = extended_gcd(a, b);
            assert_eq!(a * x + b * y, g, "a={a} b={b}");
            assert_eq!(g, gcd(a.unsigned_abs(), b.unsigned_abs()) as i64);
        }
    }

    #[test]
    fn mod_inverse_round_trips() {
        let m = 8191u64;
        for a in [1u64, 2, 3, 1000, 8190] {
            let inv = mod_inverse(a, m).unwrap();
            assert_eq!(mod_mul(a, inv, m), 1, "a={a}");
        }
        assert_eq!(mod_inverse(0, 7), None);
        assert_eq!(mod_inverse(6, 9), None);
        assert_eq!(mod_inverse(5, 1), Some(0));
        assert_eq!(mod_inverse(5, 0), None);
    }

    #[test]
    fn congruence_solutions_verified_by_substitution() {
        for m in [1u64, 2, 7, 8, 12, 31, 32] {
            for a in 0..m.min(16) {
                for b in 0..m.min(16) {
                    let sols = solve_linear_congruence(a, b, m);
                    // Every reported solution satisfies the congruence...
                    for &x in &sols {
                        assert_eq!(a * x % m, b % m, "a={a} b={b} m={m} x={x}");
                    }
                    // ...and brute force finds exactly the same set.
                    let brute: Vec<u64> = (0..m).filter(|&x| a * x % m == b % m).collect();
                    assert_eq!(sols, brute, "a={a} b={b} m={m}");
                }
            }
        }
    }

    #[test]
    fn primality_spot_checks() {
        assert!(!is_prime(0));
        assert!(!is_prime(1));
        assert!(is_prime(2));
        assert!(is_prime(3));
        assert!(!is_prime(4));
        assert!(is_prime(31));
        assert!(is_prime(127));
        assert!(!is_prime(2047));
        assert!(is_prime(8191));
        assert!(is_prime(131_071));
        assert!(is_prime(524_287));
        assert!(!is_prime((1 << 23) - 1)); // 8388607 = 47 * 178481
        assert!(is_prime((1 << 31) - 1));
        // Large non-Mersenne checks.
        assert!(is_prime(18_446_744_073_709_551_557)); // largest u64 prime
        assert!(!is_prime(18_446_744_073_709_551_555));
    }

    #[test]
    fn mod_pow_reference() {
        assert_eq!(mod_pow(2, 13, 8191), 2u64.pow(13) % 8191);
        assert_eq!(mod_pow(2, 0, 97), 1);
        assert_eq!(mod_pow(0, 0, 97), 1); // 0^0 = 1 by convention here
        assert_eq!(mod_pow(5, 3, 1), 0);
    }

    #[test]
    fn stride_gcd_counts_partition_the_range() {
        // The counts over all divisors d of m must cover every s in [1, m].
        for m in [2u64, 8, 32, 64] {
            let mut total = 0;
            let mut d = 1;
            while d <= m {
                let count = strides_with_gcd_pow2(m, d);
                let brute = (1..=m).filter(|&s| gcd(m, s) == d).count() as u64;
                assert_eq!(count, brute, "m={m} d={d}");
                total += count;
                d *= 2;
            }
            assert_eq!(total, m);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn stride_gcd_rejects_non_pow2() {
        let _ = strides_with_gcd_pow2(12, 4);
    }

    #[test]
    fn ratio_arithmetic_is_exact_and_reduced() {
        let half = Ratio::new(4, 8).unwrap();
        assert_eq!((half.num, half.den), (1, 2));
        let q = half.pow(3).unwrap();
        assert_eq!(q, Ratio::new(1, 8).unwrap());
        let sum = q.checked_add(Ratio::new(7, 8).unwrap()).unwrap();
        assert_eq!(sum, Ratio::from_int(1));
        assert_eq!(
            Ratio::from_int(1)
                .checked_sub(Ratio::new(1, 3).unwrap())
                .unwrap(),
            Ratio::new(2, 3).unwrap()
        );
        // Negative differences are refused, not wrapped.
        assert_eq!(
            Ratio::new(1, 3).unwrap().checked_sub(Ratio::from_int(1)),
            None
        );
        assert_eq!(Ratio::new(1, 0), None);
    }

    #[test]
    fn ratio_overflow_is_reported_not_wrapped() {
        let big = Ratio::from_int(u128::MAX);
        assert_eq!(big.checked_mul(Ratio::from_int(2)), None);
        assert_eq!(big.checked_add(big), None);
        assert_eq!(Ratio::new(2, 3).unwrap().pow(200), None);
    }

    #[test]
    fn ratio_to_f64_rounds_to_nearest() {
        assert_eq!(Ratio::new(1, 2).unwrap().to_f64(), 0.5);
        assert_eq!(Ratio::new(1, 3).unwrap().to_f64(), 1.0 / 3.0);
    }

    #[test]
    fn checked_pow_matches_std_checked_pow() {
        for base in [0u128, 1, 2, 7, 10, u128::MAX] {
            for exp in [0u32, 1, 2, 5, 12, 40] {
                assert_eq!(checked_pow_u128(base, exp), base.checked_pow(exp));
            }
        }
    }
}
