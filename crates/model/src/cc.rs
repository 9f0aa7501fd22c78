//! CC-model execution time: Equations (4)–(8).

use vcache_mersenne::numtheory::gcd;

use crate::mm::{t_b, t_elemt_mm};
use crate::params::{Machine, StrideModel, Workload};

/// Direct-mapped self-interference stalls for one block of `b` elements at
/// a known stride (the term inside Equation (5)): the vector occupies
/// `C/gcd(C, s)` lines, so `b − C/gcd(C, s)` elements collide when
/// positive (and `b − 1` in the single-line case), each stalling `t_m`.
fn i_s_c_direct_fixed(machine: &Machine, b: u64, stride: u64) -> f64 {
    let c = machine.cache_lines;
    let g = gcd(c, stride);
    // A power-of-two C has only power-of-two divisors, so dividing by
    // the gcd is a shift.
    let lines = if c.is_power_of_two() {
        c >> g.trailing_zeros()
    } else {
        c / g
    };
    b.saturating_sub(lines) as f64 * machine.t_m as f64
}

/// `I_s^C(B)` for the direct-mapped cache: Equation (5) evaluated exactly
/// over the stride model (for the paper's random model this is the
/// closed-form Equation (6); for `B` a power of two it reduces to
/// `(1−P_stride1)/(3(C−1)) · (B² − 1) · t_m`).
///
/// # Panics
///
/// Panics (debug) if the machine's `cache_lines` is not a power of two —
/// this function models the conventional cache.
#[must_use]
pub fn i_s_c_direct(machine: &Machine, b: u64, stride: &StrideModel) -> f64 {
    debug_assert!(
        machine.cache_lines.is_power_of_two(),
        "direct-mapped model needs 2^c lines"
    );
    stride.expect(|s| i_s_c_direct_fixed(machine, b, s))
}

/// `I_s^C(B)` for the prime-mapped cache: Equation (8). Self-interference
/// survives only for strides ≡ 0 (mod `C`), which the random model hits
/// with probability `(1−P_stride1)/(C−1)`, costing `(B−1)·t_m`.
#[must_use]
pub fn i_s_c_prime(machine: &Machine, b: u64, stride: &StrideModel) -> f64 {
    let c = machine.cache_lines;
    stride.expect(|s| {
        if s % c == 0 {
            (b.saturating_sub(1)) as f64 * machine.t_m as f64
        } else {
            // Any other stride walks distinct lines until the vector
            // exceeds the cache; blocks are assumed ≤ C (blocked programs).
            b.saturating_sub(c) as f64 * machine.t_m as f64
        }
    })
}

/// `I_c^C`: footprint-model cross-interference stalls — each of the
/// `B·P_ds` second-vector elements falls into the first vector's footprint
/// with probability `B/C` (Equation preceding (7)).
#[must_use]
pub fn i_c_c(machine: &Machine, wl: &Workload) -> f64 {
    let b = wl.b as f64;
    b * b * wl.p_ds / machine.cache_lines as f64 * machine.t_m as f64
}

/// Equation (7): cycles per element once the block is cached,
/// `1 + P_ss·I_s(B)/B + P_ds·(I_s(B) + I_s(B·P_ds) + I_c)/B`,
/// with `I_s` supplied per mapping scheme.
#[must_use]
pub fn t_elemt_cc<F>(machine: &Machine, wl: &Workload, mut i_s: F) -> f64
where
    F: FnMut(&Machine, u64, &StrideModel) -> f64,
{
    let b = wl.b as f64;
    let is_first = i_s(machine, wl.b, &wl.s1);
    let second_len = wl.second_vector_length().round() as u64;
    let is_second = if second_len > 0 {
        i_s(machine, second_len, &wl.s2)
    } else {
        0.0
    };
    let ic = i_c_c(machine, wl);
    1.0 + wl.p_ss() * is_first / b + wl.p_ds * (is_first + is_second + ic) / b
}

/// Equation (4): total CC-model execution time. The first sweep of each
/// block pays the full MM-model cost `T_B` (compulsory loading is
/// pipelined through memory); the remaining `R − 1` sweeps run from the
/// cache with start-up shortened by `t_m` and per-element time
/// `T_elemt^C`.
#[must_use]
pub fn t_n_cc<F>(machine: &Machine, wl: &Workload, i_s: F) -> f64
where
    F: FnMut(&Machine, u64, &StrideModel) -> f64,
{
    let t_first = t_b(machine, wl.b, t_elemt_mm(machine, wl));
    let strips = wl.b.div_ceil(machine.mvl) as f64;
    let t_cached = 10.0
        + strips * (15.0 + machine.t_start() - machine.t_m as f64)
        + wl.b as f64 * t_elemt_cc(machine, wl, i_s);
    (t_first + t_cached * (wl.r.saturating_sub(1)) as f64) * wl.n.div_ceil(wl.b) as f64
}

/// Cycles per result for the direct-mapped CC-model.
#[must_use]
pub fn cc_direct_cycles_per_result(machine: &Machine, wl: &Workload) -> f64 {
    t_n_cc(machine, wl, i_s_c_direct) / (wl.n as f64 * wl.r as f64)
}

/// Cycles per result for the prime-mapped CC-model.
#[must_use]
pub fn cc_prime_cycles_per_result(machine: &Machine, wl: &Workload) -> f64 {
    t_n_cc(machine, wl, i_s_c_prime) / (wl.n as f64 * wl.r as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::StrideModel;

    fn direct_machine(t_m: u64) -> Machine {
        Machine {
            mvl: 64,
            banks: 64,
            t_m,
            cache_lines: 8192,
        }
    }

    fn prime_machine(t_m: u64) -> Machine {
        Machine {
            mvl: 64,
            banks: 64,
            t_m,
            cache_lines: 8191,
        }
    }

    #[test]
    fn direct_fixed_stride_reference() {
        let m = direct_machine(16);
        // Unit stride, B within C: no conflicts.
        assert_eq!(i_s_c_direct(&m, 4096, &StrideModel::Fixed(1)), 0.0);
        // Stride 512 uses 8192/512 = 16 lines: 4096-16 conflicts × 16 cycles.
        assert_eq!(
            i_s_c_direct(&m, 4096, &StrideModel::Fixed(512)),
            (4096 - 16) as f64 * 16.0
        );
        // Stride C: one line.
        assert_eq!(
            i_s_c_direct(&m, 100, &StrideModel::Fixed(8192)),
            99.0 * 16.0
        );
    }

    #[test]
    fn direct_random_matches_eq6_closed_form_for_pow2_b() {
        // Equation (6) for B a power of two: (1−P)/(3(C−1))·(B²−1)·t_m.
        let m = direct_machine(16);
        let model = StrideModel::Random {
            p_unit: 0.25,
            modulus: m.cache_lines,
        };
        for b in [256u64, 1024, 4096] {
            let exact = i_s_c_direct(&m, b, &model);
            let closed =
                0.75 / (3.0 * (m.cache_lines - 1) as f64) * ((b * b - 1) as f64) * m.t_m as f64;
            let rel = (exact - closed).abs() / closed;
            assert!(
                rel < 0.02,
                "B={b}: exact {exact} vs closed {closed} ({rel})"
            );
        }
    }

    #[test]
    fn prime_self_interference_is_tiny() {
        let m = prime_machine(16);
        let model = StrideModel::Random {
            p_unit: 0.25,
            modulus: m.cache_lines,
        };
        let b = 4096;
        // Equation (8): (1−P)(B−1)/(C−1)·t_m.
        let expected = 0.75 * (b - 1) as f64 / (m.cache_lines - 1) as f64 * 16.0;
        let got = i_s_c_prime(&m, b, &model);
        assert!((got - expected).abs() < 1e-9, "{got} vs {expected}");
        // And it is orders of magnitude below the direct-mapped value.
        let direct = i_s_c_direct(
            &direct_machine(16),
            b,
            &StrideModel::Random {
                p_unit: 0.25,
                modulus: 8192,
            },
        );
        assert!(got < direct / 100.0);
    }

    #[test]
    fn prime_pathological_stride_still_modelled() {
        let m = prime_machine(8);
        assert_eq!(i_s_c_prime(&m, 100, &StrideModel::Fixed(8191)), 99.0 * 8.0);
        assert_eq!(i_s_c_prime(&m, 100, &StrideModel::Fixed(512)), 0.0);
    }

    #[test]
    fn footprint_cross_interference_scales_quadratically() {
        let m = direct_machine(16);
        let wl1 = Workload::random_strides(1 << 20, 1024, 0.5, 0.25, 8192);
        let wl2 = Workload::random_strides(1 << 20, 2048, 0.5, 0.25, 8192);
        assert!((i_c_c(&m, &wl2) / i_c_c(&m, &wl1) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn cached_sweeps_have_unit_cost_when_conflict_free() {
        let m = prime_machine(16);
        let wl = Workload {
            n: 1 << 20,
            b: 4096,
            r: 8,
            p_ds: 0.0,
            s1: StrideModel::Fixed(1),
            s2: StrideModel::Fixed(1),
        };
        assert_eq!(t_elemt_cc(&m, &wl, i_s_c_prime), 1.0);
    }

    #[test]
    fn reuse_factor_one_degenerates_to_mm_cost() {
        // With R = 1 only the pipelined initial load happens; CC and MM
        // coincide (paper Fig. 5 at R = 1).
        let m = direct_machine(16);
        let wl = Workload::random_strides(1 << 18, 1024, 0.25, 0.25, m.banks).with_reuse(1);
        let cc = t_n_cc(&m, &wl, i_s_c_direct);
        let mm = crate::mm::t_n_mm(&m, &wl);
        assert!((cc - mm).abs() / mm < 1e-12);
    }

    #[test]
    fn prime_beats_direct_under_random_strides() {
        for tm in [8u64, 16, 32, 64] {
            let wl_d = Workload::random_strides(1 << 20, 4096, 0.25, 0.25, 8192);
            let wl_p = Workload::random_strides(1 << 20, 4096, 0.25, 0.25, 8191);
            let d = cc_direct_cycles_per_result(&direct_machine(tm), &wl_d);
            let p = cc_prime_cycles_per_result(&prime_machine(tm), &wl_p);
            assert!(p < d, "t_m = {tm}: prime {p} !< direct {d}");
        }
    }

    #[test]
    fn unit_strides_make_mappings_equivalent() {
        // Paper Fig. 9 right endpoint: P_stride1 = 1 ⇒ identical cost
        // (up to the one-line cache-size difference).
        let wl = Workload::random_strides(1 << 20, 4096, 0.25, 1.0, 8192);
        let d = cc_direct_cycles_per_result(&direct_machine(32), &wl);
        let p = cc_prime_cycles_per_result(&prime_machine(32), &wl);
        assert!((d - p).abs() / d < 1e-3, "direct {d} vs prime {p}");
    }
}
