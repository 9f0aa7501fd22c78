//! MM-model execution time: Equations (1)–(3).

use vcache_mersenne::congruence::CrossConflict;
use vcache_mersenne::numtheory::gcd;

use crate::params::{Machine, StrideModel, Workload};

/// Per-stride bank self-interference stalls over one `MVL`-element vector
/// (the bracketed term of the paper's `I_s^M` derivation, before averaging):
/// `MVL/k` sweeps each delayed `t_m − k` cycles for `k = M/gcd(M, s)` banks
/// visited, degenerating to `MVL·(t_m − 1)` when the whole vector sits in
/// one bank.
fn i_s_m_fixed(machine: &Machine, stride: u64) -> f64 {
    let m = machine.banks;
    let tm = machine.t_m;
    let g = gcd(m, stride);
    // A power-of-two M has only power-of-two divisors, so dividing by
    // the gcd is a shift.
    let k = if m.is_power_of_two() {
        m >> g.trailing_zeros()
    } else {
        m / g
    };
    if k == 1 {
        return (machine.mvl * (tm - 1)) as f64;
    }
    if tm <= k {
        return 0.0;
    }
    (machine.mvl / k) as f64 * (tm - k) as f64
}

/// `I_s^M`: expected bank self-interference stalls per `MVL`-element vector
/// under the given stride model (Equation (2)'s summation, evaluated
/// exactly over the distribution).
///
/// For the paper's random model this agrees with its closed form
/// `MVL·(1−P_stride1)/(M−1)·[t_m + t_m/2·⌊log2 t_m⌋ − 2^⌊log2 t_m⌋]`
/// (tested below).
#[must_use]
pub fn i_s_m(machine: &Machine, stride: &StrideModel) -> f64 {
    stride.expect(|s| i_s_m_fixed(machine, s))
}

/// `I_c^M` in closed form: expected cross-interference stalls between two
/// `MVL`-element streams when the bank offset `D` is uniform.
///
/// Averaging the congruence solution count over a uniform `D` makes the
/// stride dependence vanish: for each lag `k`, exactly one `D` value
/// collides per valid `i`, so the expectation is
/// `Σ_{|k| < t_m} (t_m − |k|)·(MVL − |k|) / M` — a fact the paper's
/// numerical averaging reproduces and the explicit enumeration in
/// [`i_c_m_averaged`] confirms.
#[must_use]
pub fn i_c_m_expected(machine: &Machine) -> f64 {
    let tm = machine.t_m as i64;
    let mvl = machine.mvl as i64;
    let mut acc = 0.0;
    for k in -(tm - 1).max(0)..=(tm - 1).max(0) {
        let weight = (tm - k.abs()) as f64;
        let range = (mvl - k.abs()).max(0) as f64;
        acc += weight * range;
    }
    acc / machine.banks as f64
}

/// `I_c^M` by explicit averaging over `(s1, s2, D)` with the paper's
/// distributions — the "program of solving the congruence equation" the
/// paper mentions. Exact but `O(M² · t_m · …)`; used to validate
/// [`i_c_m_expected`] and available for non-uniform `D` studies.
#[must_use]
pub fn i_c_m_averaged(machine: &Machine, s1: &StrideModel, s2: &StrideModel) -> f64 {
    let m = machine.banks;
    s1.expect(|a| {
        s2.expect(|b| {
            let mut acc = 0.0;
            for d in 0..m {
                acc += CrossConflict {
                    s1: a,
                    s2: b,
                    d,
                    banks: m,
                    elements: machine.mvl,
                    access_time: machine.t_m,
                }
                .stalls() as f64;
            }
            acc / m as f64
        })
    })
}

/// Equation (2): cycles to process one element on the MM-model,
/// `1 + P_ss·I_s/MVL + P_ds·(I_s(s1) + I_s(s2) + I_c)/MVL`.
///
/// (The paper writes `2·I_s^M` because both its streams draw from the same
/// distribution; with distinct models the sum is the faithful reading.)
#[must_use]
pub fn t_elemt_mm(machine: &Machine, wl: &Workload) -> f64 {
    let mvl = machine.mvl as f64;
    let is1 = i_s_m(machine, &wl.s1);
    let is2 = i_s_m(machine, &wl.s2);
    let ic = i_c_m_expected(machine);
    1.0 + wl.p_ss() * is1 / mvl + wl.p_ds * (is1 + is2 + ic) / mvl
}

/// Equation (1): time for a sequence of operations on a vector of length
/// `B`: `10 + ⌈B/MVL⌉·(15 + T_start) + B·T_elemt`.
#[must_use]
pub fn t_b(machine: &Machine, b: u64, t_elemt: f64) -> f64 {
    let strips = b.div_ceil(machine.mvl) as f64;
    10.0 + strips * (15.0 + machine.t_start()) + b as f64 * t_elemt
}

/// Equation (3): total MM-model execution time
/// `T_B · R · ⌈N/B⌉` (the paper's `⌈N/R⌉` is a typo for the block count —
/// Equation (4) uses `⌈N/B⌉` for the same quantity).
#[must_use]
pub fn t_n_mm(machine: &Machine, wl: &Workload) -> f64 {
    let t_elemt = t_elemt_mm(machine, wl);
    t_b(machine, wl.b, t_elemt) * wl.r as f64 * wl.n.div_ceil(wl.b) as f64
}

/// Clock cycles per result on the MM-model: `T_N / (N·R)`.
#[must_use]
pub fn mm_cycles_per_result(machine: &Machine, wl: &Workload) -> f64 {
    t_n_mm(machine, wl) / (wl.n as f64 * wl.r as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Machine, StrideModel};

    fn machine(banks: u64, t_m: u64) -> Machine {
        Machine {
            mvl: 64,
            banks,
            t_m,
            cache_lines: 8192,
        }
    }

    #[test]
    fn fixed_stride_self_interference_reference() {
        let m = machine(32, 16);
        // stride 1: full sweep of 32 banks ≥ t_m → no stalls.
        assert_eq!(i_s_m_fixed(&m, 1), 0.0);
        // stride 8: k = 4 < 16 → 16 sweeps × 12 cycles.
        assert_eq!(i_s_m_fixed(&m, 8), 16.0 * 12.0);
        // stride 32: one bank → 64 × 15.
        assert_eq!(i_s_m_fixed(&m, 32), 64.0 * 15.0);
    }

    #[test]
    fn random_self_interference_matches_paper_closed_form() {
        // Paper: I_s^M = MVL·(1−P)/(M−1)·[t_m + t_m/2·⌊log2 t_m⌋ − 2^⌊log2 t_m⌋].
        // The bracket already includes the degenerate stride-M term
        // MVL·(t_m − 1); for power-of-two t_m ≤ M the identity is exact.
        for (banks, tm) in [(32u64, 8u64), (32, 16), (64, 16), (64, 32), (64, 64)] {
            let m = machine(banks, tm);
            let model = StrideModel::Random {
                p_unit: 0.25,
                modulus: banks,
            };
            let exact = i_s_m(&m, &model);
            let log = (tm as f64).log2().floor();
            let closed = 64.0 * 0.75 / (banks - 1) as f64
                * (tm as f64 + tm as f64 / 2.0 * log - 2f64.powf(log));
            assert!(
                (exact - closed).abs() < 1e-9,
                "banks={banks} tm={tm}: exact {exact} vs closed {closed}"
            );
        }
    }

    #[test]
    fn unit_stride_only_never_stalls() {
        let m = machine(32, 16);
        assert_eq!(i_s_m(&m, &StrideModel::Fixed(1)), 0.0);
        let wl = Workload {
            n: 1 << 16,
            b: 1024,
            r: 4,
            p_ds: 0.0,
            s1: StrideModel::Fixed(1),
            s2: StrideModel::Fixed(1),
        };
        assert_eq!(t_elemt_mm(&m, &wl), 1.0);
    }

    #[test]
    fn cross_interference_closed_form_matches_enumeration() {
        for (banks, tm) in [(8u64, 4u64), (16, 8), (32, 8)] {
            let m = Machine {
                mvl: 32,
                banks,
                t_m: tm,
                cache_lines: 8192,
            };
            let s = StrideModel::Random {
                p_unit: 0.25,
                modulus: banks,
            };
            let closed = i_c_m_expected(&m);
            let enumerated = i_c_m_averaged(&m, &s, &s);
            assert!(
                (closed - enumerated).abs() < 1e-6,
                "banks={banks} tm={tm}: {closed} vs {enumerated}"
            );
        }
    }

    #[test]
    fn cross_interference_shrinks_with_more_banks() {
        let base = i_c_m_expected(&machine(16, 8));
        let wide = i_c_m_expected(&machine(64, 8));
        assert!(wide < base);
        assert!((base / wide - 4.0).abs() < 1e-9, "scales as 1/M");
    }

    #[test]
    fn t_b_reference_value() {
        let m = machine(32, 16);
        // B = 128, T_elemt = 1: 10 + 2·(15 + 46) + 128 = 260.
        assert_eq!(t_b(&m, 128, 1.0), 260.0);
        // Partial strip rounds up.
        assert_eq!(t_b(&m, 65, 1.0), 10.0 + 2.0 * 61.0 + 65.0);
    }

    #[test]
    fn cycles_per_result_decreases_with_blocking_overhead_amortised() {
        let m = machine(32, 4);
        let wl_small = Workload::random_strides(1 << 16, 64, 0.0, 1.0, 32);
        let wl_big = Workload::random_strides(1 << 16, 4096, 0.0, 1.0, 32);
        // Unit strides (p_stride1 = 1): only fixed overheads differ; larger
        // blocks amortise the 10-cycle block cost better.
        assert!(mm_cycles_per_result(&m, &wl_big) < mm_cycles_per_result(&m, &wl_small));
    }

    #[test]
    fn mm_time_grows_with_memory_latency() {
        let wl = Workload::random_strides(1 << 18, 2048, 0.25, 0.25, 32);
        let slow = mm_cycles_per_result(&machine(32, 32), &wl);
        let fast = mm_cycles_per_result(&machine(32, 4), &wl);
        assert!(slow > fast);
    }
}
