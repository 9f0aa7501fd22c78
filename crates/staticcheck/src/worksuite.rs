//! The canonical workload-certification suite: every generator in
//! `vcache-workloads` paired with its [`LoopNest`] lowering and committed
//! verdicts, run by `vcache check --workloads`.
//!
//! Where the nest suite (`nestsuite.rs`) pins verdicts for hand-built
//! canonical nests, this table certifies the *workload library itself*:
//! each case carries the generator's actual trace and a lowering that
//! must be word-set-identical to it per stream — so the abstract verdict
//! provably speaks about the kernel the simulators replay, not a
//! look-alike. Inherently non-affine kernels (the seeded-random gather)
//! are never silently skipped: they carry an explicit
//! [`Lowering::NonAffine`] record with a reason and a bounded-footprint
//! *envelope* nest, and the suite machine-checks that every traced word
//! falls inside the envelope. Any word-set mismatch, containment
//! violation, or verdict drift is a `VC103` finding.

use std::cmp::Ordering;

use serde::Serialize;
use vcache_core::blocking::SubBlockPlan;
use vcache_workloads::numeric::{fft_radix2, lu_blocked, matmul_blocked, TracedBuffer};
use vcache_workloads::{
    blocked_lu_trace, blocked_matmul_trace, fft_phase_trace, fft_stage_trace, fft_two_dim_trace,
    gather_trace, generate_program, histogram_trace, matrix_trace, saxpy_trace, signed_stride,
    spmv_gather_trace, stencil5_trace, subblock_trace, transpose_trace, FftLayout, MatrixSweep,
    Program, Vcm,
};

use crate::absint::{analyze_nest, NestVerdict};
use crate::lint::Finding;
use crate::nest::{AffineRef, LoopNest, Term};
use crate::probabilistic::{analyze_profile, AccessProfile, ProbVerdict};
use crate::suite::{canonical_geometries, Expect};

/// Word cap for materializing lowered nests during word-set validation.
/// Every canonical case fits comfortably; a case that outgrows the cap is
/// itself a `VC103` finding rather than a silent skip.
pub const WORKSET_CAP: u64 = 1 << 22;

/// How a workload is lowered for certification.
#[derive(Debug, Clone)]
pub enum Lowering {
    /// An affine lowering whose per-stream word set must equal the
    /// trace's exactly.
    Exact(LoopNest),
    /// The machine-checked exclusion for inherently non-affine kernels:
    /// a reason plus an *envelope* nest that must contain every traced
    /// word. The envelope's verdict bounds the kernel's behaviour (its
    /// footprint is a superset), it does not certify it.
    NonAffine {
        /// Why no exact affine lowering exists.
        reason: String,
        /// Bounded-footprint over-approximation of the trace.
        envelope: LoopNest,
        /// The address distribution the generator samples, feeding the
        /// Layer-4 probabilistic analyzer. `None` marks a silent
        /// envelope-only row — a `VC009` finding.
        profile: Option<AccessProfile>,
    },
}

impl Lowering {
    /// The nest the abstract interpreter analyzes for this lowering.
    #[must_use]
    pub fn nest(&self) -> &LoopNest {
        match self {
            Self::Exact(nest) | Self::NonAffine { envelope: nest, .. } => nest,
        }
    }
}

/// Expected row outcome, including the non-affine exclusion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum WorkloadExpect {
    /// Exact lowering, [`NestVerdict::ConflictFree`].
    Free,
    /// Exact lowering, [`NestVerdict::SelfInterfering`].
    SelfInt,
    /// Exact lowering, [`NestVerdict::CrossInterfering`].
    CrossInt,
    /// Non-affine kernel; the *envelope* must get this verdict.
    NonAffine {
        /// Expected verdict of the bounding envelope.
        envelope: Expect,
    },
}

/// One suite case: a generator's trace, its lowering, and expected
/// verdicts under both mappers.
pub struct WorkloadCase {
    /// Row name (stable across releases; reports key on it).
    pub name: &'static str,
    /// The generator's trace.
    pub trace: Program,
    /// The lowering under certification.
    pub lowering: Lowering,
    /// Words per line for this case.
    pub line_words: u64,
    /// Expected outcome under the power-of-two mapper (8192 sets).
    pub expect_pow2: WorkloadExpect,
    /// Expected outcome under the Mersenne mapper (8191 sets).
    pub expect_prime: WorkloadExpect,
}

/// One evaluated row of the workload suite, for reports.
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadSuiteResult {
    /// Case name.
    pub workload: String,
    /// Geometry tag.
    pub geometry: &'static str,
    /// What the table expects.
    pub expected: WorkloadExpect,
    /// Verdict of the lowered nest (for non-affine rows: of the
    /// envelope).
    pub verdict: NestVerdict,
    /// Lines materialized by enumeration fallbacks (0 = purely
    /// abstract), mirroring the nest-suite rows.
    pub enumerated_lines: u64,
    /// `Some(reason)` when the kernel is certified non-affine.
    pub non_affine: Option<String>,
    /// Closed-form collision verdict for non-affine rows carrying an
    /// access profile (`None` on affine rows).
    pub probabilistic: Option<ProbVerdict>,
    /// The lowering/trace word-set check passed (equality for exact
    /// lowerings, containment for envelopes).
    pub word_set_ok: bool,
    /// Row is fully green: word sets check out and the verdict matches.
    pub ok: bool,
}

impl WorkloadSuiteResult {
    /// Human-readable verdict, marking envelope (non-affine) rows.
    #[must_use]
    pub fn verdict_label(&self) -> String {
        if self.non_affine.is_some() {
            format!("non-affine, envelope {}", self.verdict)
        } else {
            self.verdict.to_string()
        }
    }
}

fn matches_workload(expect: WorkloadExpect, verdict: NestVerdict, non_affine: bool) -> bool {
    let verdict_matches = |e: Expect| {
        matches!(
            (e, verdict),
            (Expect::Free, NestVerdict::ConflictFree)
                | (Expect::SelfInt, NestVerdict::SelfInterfering)
                | (Expect::CrossInt, NestVerdict::CrossInterfering)
        )
    };
    match expect {
        WorkloadExpect::Free => !non_affine && verdict_matches(Expect::Free),
        WorkloadExpect::SelfInt => !non_affine && verdict_matches(Expect::SelfInt),
        WorkloadExpect::CrossInt => !non_affine && verdict_matches(Expect::CrossInt),
        WorkloadExpect::NonAffine { envelope } => non_affine && verdict_matches(envelope),
    }
}

/// Entries only in `a` and only in `b`, by one merge walk over two sorted,
/// deduplicated slices.
fn differences<T: Ord>(a: &[T], b: &[T]) -> (usize, usize) {
    let (mut i, mut j) = (0, 0);
    let (mut only_a, mut only_b) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                only_a += 1;
                i += 1;
            }
            Ordering::Greater => {
                only_b += 1;
                j += 1;
            }
            Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    (only_a + a.len() - i, only_b + b.len() - j)
}

/// Validates the lowering against the trace. Returns `None` when the
/// check passes, or a description of the failure.
fn validate_lowering(case: &WorkloadCase) -> Option<String> {
    let nest = case.lowering.nest();
    let Some(lowered) = nest.to_program(WORKSET_CAP) else {
        return Some(format!(
            "lowering of `{}` exceeds the {WORKSET_CAP}-word materialization cap",
            case.name
        ));
    };
    let traced = case.trace.footprint(1);
    match &case.lowering {
        Lowering::Exact(_) => {
            let low = lowered.footprint(1);
            if low == traced {
                None
            } else {
                let (missing, extra) = differences(&traced, &low);
                Some(format!(
                    "lowering word set diverges from the trace: {missing} traced \
                     (word, stream) pairs missing from the nest, {extra} extra"
                ))
            }
        }
        Lowering::NonAffine { reason, .. } => {
            if reason.trim().is_empty() {
                return Some("non-affine exclusion carries no reason".into());
            }
            // Containment: the envelope ignores streams (it bounds the
            // footprint, not the stream structure). The footprints sort by
            // word, so a word's pairs are adjacent.
            let mut envelope: Vec<u64> = lowered.footprint(1).iter().map(|&(w, _)| w).collect();
            envelope.dedup();
            let escapees = traced
                .chunk_by(|a, b| a.0 == b.0)
                .filter(|pairs| envelope.binary_search(&pairs[0].0).is_err())
                .count();
            if escapees == 0 {
                None
            } else {
                Some(format!(
                    "{escapees} traced words escape the declared non-affine envelope"
                ))
            }
        }
    }
}

/// Builds a diagonally dominant column-major matrix (LU without pivoting
/// is stable on it).
fn dd_values(n: usize) -> Vec<f64> {
    let mut m = vec![0.0; n * n];
    for j in 0..n {
        for i in 0..n {
            m[j * n + i] = if i == j {
                f64::from(u32::try_from(n).unwrap_or(u32::MAX)) + 1.0
            } else {
                f64::from(u32::try_from((i * 7 + j * 3) % 5).unwrap_or(0)) * 0.25
            };
        }
    }
    m
}

/// Builds the committed workload suite: every public generator in
/// `vcache-workloads`, certified or explicitly excluded.
///
/// # Panics
///
/// Panics only if a canonical instance itself fails to construct, which
/// would be a programming error in this module.
#[must_use]
pub fn cases() -> Vec<WorkloadCase> {
    use WorkloadExpect as E;
    let mut cases = Vec::new();

    // matrix_trace, row sweep: stride 4096 words → line stride 512, the
    // Eq. 8 headline (orbit 16 under pow2, full orbit under the prime).
    let row = Program::new(
        "matrix-row",
        vec![matrix_trace(0, 4096, 64, MatrixSweep::Row(0), 0)],
    );
    cases.push(WorkloadCase {
        name: "matrix-row",
        lowering: Lowering::Exact(LoopNest::from_program(&row)),
        trace: row,
        line_words: 8,
        expect_pow2: E::SelfInt,
        expect_prime: E::Free,
    });

    // matrix_trace, diagonal of a 8190-row matrix: stride 8191 ≡ 0
    // (mod 2^13 − 1) — the prime mapper's only bad class, harmless to
    // the pow2 mapper.
    let diag = Program::new(
        "matrix-diag-resonant",
        vec![matrix_trace(0, 8190, 64, MatrixSweep::Diagonal, 0)],
    );
    cases.push(WorkloadCase {
        name: "matrix-diag-resonant",
        lowering: Lowering::Exact(LoopNest::from_program(&diag)),
        trace: diag,
        line_words: 1,
        expect_pow2: E::Free,
        expect_prime: E::SelfInt,
    });

    // saxpy_trace with bases 8·8192 lines apart: aliased onto the same
    // sets by the pow2 mapper, shifted apart by the prime one.
    let saxpy = saxpy_trace(0, 8 * 8192 * 8, 64);
    cases.push(WorkloadCase {
        name: "saxpy-aliased",
        lowering: Lowering::Exact(LoopNest::from_program(&saxpy)),
        trace: saxpy,
        line_words: 8,
        expect_pow2: E::CrossInt,
        expect_prime: E::Free,
    });

    // subblock_trace bridged to LoopNest::subblock: the §4 corrected
    // bound b2 = 4 for P = 10000 (conflict-free both ways) and the
    // paper's erratum b2 = 8 (interfering both ways).
    for (name, b2, expect) in [
        ("subblock-fixed", 4, E::Free),
        ("subblock-erratum", 8, E::SelfInt),
    ] {
        let plan = SubBlockPlan {
            b1: 1000,
            b2,
            cache_lines: 8191,
        };
        cases.push(WorkloadCase {
            name,
            trace: subblock_trace(0, 10_000, b2, (0, 0), (1000, b2), 0),
            lowering: Lowering::Exact(LoopNest::subblock(name, 0, 10_000, &plan, 0)),
            line_words: 1,
            expect_pow2: expect,
            expect_prime: expect,
        });
    }

    // blocked_matmul_trace: a window-fitting instance and one whose
    // three matrices wrap the set space.
    cases.push(WorkloadCase {
        name: "matmul-small",
        trace: blocked_matmul_trace(32, 8),
        lowering: Lowering::Exact(LoopNest::blocked_matmul(32, 8)),
        line_words: 1,
        expect_pow2: E::Free,
        expect_prime: E::Free,
    });
    cases.push(WorkloadCase {
        name: "matmul-wrap",
        trace: blocked_matmul_trace(128, 32),
        lowering: Lowering::Exact(LoopNest::blocked_matmul(128, 32)),
        line_words: 4,
        expect_pow2: E::CrossInt,
        expect_prime: E::CrossInt,
    });

    // blocked_lu_trace: panels and trailing columns as separate streams.
    cases.push(WorkloadCase {
        name: "lu-small",
        trace: blocked_lu_trace(64, 16),
        lowering: Lowering::Exact(LoopNest::lu_blocked("lu-small", 0, 64, 16, (0, 1))),
        line_words: 1,
        expect_pow2: E::Free,
        expect_prime: E::Free,
    });
    cases.push(WorkloadCase {
        name: "lu-wrap",
        trace: blocked_lu_trace(96, 24),
        lowering: Lowering::Exact(LoopNest::lu_blocked("lu-wrap", 0, 96, 24, (0, 1))),
        line_words: 1,
        expect_pow2: E::SelfInt,
        expect_prime: E::SelfInt,
    });

    // transpose_trace: the regression instance for the fixed stride
    // cast, plus a base-aliased instance distinguishing the mappers.
    cases.push(WorkloadCase {
        name: "transpose-small",
        trace: transpose_trace(0, 10_000, 8, 4),
        lowering: Lowering::Exact(LoopNest::transpose(0, 10_000, 8, 4)),
        line_words: 1,
        expect_pow2: E::Free,
        expect_prime: E::Free,
    });
    cases.push(WorkloadCase {
        name: "transpose-aliased",
        trace: transpose_trace(0, 8 * 8192 * 8, 8, 8),
        lowering: Lowering::Exact(LoopNest::transpose(0, 8 * 8192 * 8, 8, 8)),
        line_words: 8,
        expect_pow2: E::CrossInt,
        expect_prime: E::Free,
    });

    // stencil5_trace: a fitting grid and a column-resonant one (columns
    // 512 words apart wrap both set spaces).
    cases.push(WorkloadCase {
        name: "stencil-small",
        trace: stencil5_trace(0, 10, 6),
        lowering: Lowering::Exact(LoopNest::stencil5(0, 10, 6)),
        line_words: 1,
        expect_pow2: E::Free,
        expect_prime: E::Free,
    });
    cases.push(WorkloadCase {
        name: "stencil-resonant",
        trace: stencil5_trace(0, 512, 20),
        lowering: Lowering::Exact(LoopNest::stencil5(0, 512, 20)),
        line_words: 1,
        expect_pow2: E::SelfInt,
        expect_prime: E::SelfInt,
    });

    // fft_stage_trace: one butterfly stage is a contiguous window.
    cases.push(WorkloadCase {
        name: "fft-stage",
        trace: fft_stage_trace(0, 4096, 16, 0),
        lowering: Lowering::Exact(LoopNest::fft_butterfly_stage(0, 4096, 16, 0)),
        line_words: 8,
        expect_pow2: E::Free,
        expect_prime: E::Free,
    });

    // fft_phase_trace, row phase: transforms stride 4096 words → line
    // stride 512 again, per-transform orbit 16 under pow2.
    cases.push(WorkloadCase {
        name: "fft-row-phase",
        trace: fft_phase_trace(0, 4096, 64, 8, 0),
        lowering: Lowering::Exact(LoopNest::fft_phase(0, 4096, 64, 8, 0)),
        line_words: 8,
        expect_pow2: E::SelfInt,
        expect_prime: E::Free,
    });

    // fft_two_dim_trace: 8192 contiguous words — exactly the pow2 set
    // count (free) and one more than the prime one (pigeonhole).
    let layout = FftLayout { b1: 64, b2: 128 };
    cases.push(WorkloadCase {
        name: "fft2d-capacity-edge",
        trace: fft_two_dim_trace(layout),
        lowering: Lowering::Exact(LoopNest::fft_two_dim(layout)),
        line_words: 1,
        expect_pow2: E::Free,
        expect_prime: E::SelfInt,
    });

    // generate_program (the §3.1 VCM realization): flat strided blocks,
    // exact by per-access lowering.
    let vcm = generate_program(&Vcm::blocked_matmul(8), 256, 42);
    cases.push(WorkloadCase {
        name: "vcm-blocked-matmul",
        lowering: Lowering::Exact(LoopNest::from_program(&vcm)),
        trace: vcm,
        line_words: 1,
        expect_pow2: E::Free,
        expect_prime: E::Free,
    });

    // gather_trace: data-dependent addresses, *no* affine lowering —
    // the documented exclusion, with a narrow and a set-wrapping
    // envelope showing the fallback stays honest about footprints.
    for (name, span, n, envelope_expect) in [
        ("gather", 4096, 256, Expect::Free),
        ("gather-wide", 2 * 8192 * 8, 512, Expect::SelfInt),
    ] {
        cases.push(WorkloadCase {
            name,
            trace: gather_trace(0, span, n, 42),
            lowering: Lowering::NonAffine {
                reason: "gather addresses are drawn from a seeded RNG (data-dependent \
                         indexing), not affine functions of loop indices"
                    .into(),
                envelope: LoopNest::new(
                    format!("{name}-envelope[span={span}]"),
                    vec![AffineRef::new(
                        0,
                        vec![Term {
                            coeff: 1,
                            trip: span,
                        }],
                        0,
                    )],
                ),
                profile: Some(AccessProfile::UniformSpan { base: 0, span }),
            },
            line_words: 8,
            expect_pow2: E::NonAffine {
                envelope: envelope_expect,
            },
            expect_prime: E::NonAffine {
                envelope: envelope_expect,
            },
        });
    }

    // histogram_trace: Zipf-skewed scatter over 16384 bin heads — a
    // 131072-word table wraps both set spaces (envelope self-interferes
    // either way); the probabilistic layer quantifies the skew.
    let (bins, bin_words, updates) = (16_384u64, 8u64, 512u64);
    cases.push(WorkloadCase {
        name: "histogram-zipf",
        trace: histogram_trace(0, bins, bin_words, updates, 42),
        lowering: Lowering::NonAffine {
            reason: "histogram bins are drawn from a seeded Zipf-skewed distribution \
                     (data-dependent indexing), not affine functions of loop indices"
                .into(),
            envelope: LoopNest::new(
                format!("histogram-envelope[bins={bins}]"),
                vec![AffineRef::new(
                    0,
                    vec![Term {
                        coeff: 1,
                        trip: bins * bin_words,
                    }],
                    0,
                )],
            ),
            profile: Some(AccessProfile::Zipf {
                base: 0,
                bins,
                bin_words,
            }),
        },
        line_words: 8,
        expect_pow2: E::NonAffine {
            envelope: Expect::SelfInt,
        },
        expect_prime: E::NonAffine {
            envelope: Expect::SelfInt,
        },
    });

    // spmv_gather_trace: random row heads of a 64 × 4096-word matrix —
    // a *strided* random support. Line stride 512 folds the envelope
    // onto a 16-set orbit under the pow2 mapper while 8191 spreads all
    // 64 rows; the probabilistic layer turns that into expected-miss
    // counts with the same sign.
    let (rows, row_words, gathers) = (64u64, 4096u64, 256u64);
    cases.push(WorkloadCase {
        name: "spmv-gather",
        trace: spmv_gather_trace(0, rows, row_words, gathers, 42),
        lowering: Lowering::NonAffine {
            reason: "gathered row indices come from a seeded RNG (sparse column \
                     structure), not affine functions of loop indices"
                .into(),
            envelope: LoopNest::new(
                format!("spmv-envelope[rows={rows}]"),
                vec![AffineRef::new(
                    0,
                    vec![Term {
                        coeff: signed_stride(row_words),
                        trip: rows,
                    }],
                    0,
                )],
            ),
            profile: Some(AccessProfile::UniformStrided {
                base: 0,
                stride: row_words,
                count: rows,
            }),
        },
        line_words: 8,
        expect_pow2: E::NonAffine {
            envelope: Expect::SelfInt,
        },
        expect_prime: E::NonAffine {
            envelope: Expect::Free,
        },
    });

    // numeric::matmul_blocked: the *computing* kernel at pow2-aliased,
    // prime-separated buffer bases (8192·1024 and 8192·2048 lines).
    let (n, block) = (32, 8);
    let (b_base, c_base) = (1u64 << 26, 1u64 << 27);
    let a = TracedBuffer::zeros(0, n * n, 0);
    let b = TracedBuffer::zeros(b_base, n * n, 1);
    let mut c = TracedBuffer::zeros(c_base, n * n, 2);
    let log = matmul_blocked(&a, &b, &mut c, n, block);
    cases.push(WorkloadCase {
        name: "numeric-matmul",
        trace: log.to_program("numeric-matmul"),
        lowering: Lowering::Exact(LoopNest::blocked_matmul_at(
            "numeric-matmul",
            (0, b_base, c_base),
            n as u64,
            block as u64,
        )),
        line_words: 8,
        expect_pow2: E::CrossInt,
        expect_prime: E::Free,
    });

    // numeric::lu_blocked: single buffer, panels and trailing merged
    // into one stream.
    let (n, block) = (24, 8);
    let mut buf = TracedBuffer::from_values(0, dd_values(n), 0);
    let log = lu_blocked(&mut buf, n, block);
    cases.push(WorkloadCase {
        name: "numeric-lu",
        trace: log.to_program("numeric-lu"),
        lowering: Lowering::Exact(LoopNest::lu_blocked(
            "numeric-lu",
            0,
            n as u64,
            block as u64,
            (0, 0),
        )),
        line_words: 1,
        expect_pow2: E::Free,
        expect_prime: E::Free,
    });

    // numeric::fft_radix2: re/im buffers 8192·1024 lines apart — the
    // same base-aliasing story as numeric-matmul, from running code.
    let n = 1024;
    let im_base = 1u64 << 26;
    let mut re = TracedBuffer::from_values(0, vec![1.0; n], 0);
    let mut im = TracedBuffer::zeros(im_base, n, 1);
    let log = fft_radix2(&mut re, &mut im);
    cases.push(WorkloadCase {
        name: "numeric-fft",
        trace: log.to_program("numeric-fft"),
        lowering: Lowering::Exact(LoopNest::fft_radix2(0, im_base, n as u64)),
        line_words: 8,
        expect_pow2: E::CrossInt,
        expect_prime: E::Free,
    });

    cases
}

/// Runs the workload suite.
///
/// Returns every row plus a `VC103` finding per word-set/containment
/// failure and per verdict drift.
///
/// # Panics
///
/// Panics only if a canonical case errors out of the analyzer, which
/// would be a programming error in this module.
#[must_use]
pub fn run() -> (Vec<WorkloadSuiteResult>, Vec<Finding>) {
    let mut results = Vec::new();
    let mut findings = Vec::new();
    for case in cases() {
        let word_set_failure = validate_lowering(&case);
        if let Some(message) = &word_set_failure {
            findings.push(Finding::gate(
                "VC103",
                &format!("worksuite:{}", case.name),
                message.clone(),
            ));
        }
        let (non_affine, profile) = match &case.lowering {
            Lowering::Exact(_) => (None, None),
            Lowering::NonAffine {
                reason, profile, ..
            } => (Some(reason.clone()), *profile),
        };
        let accesses = u64::try_from(case.trace.words().count()).unwrap_or(u64::MAX);
        let expectations = [case.expect_pow2, case.expect_prime];
        for (geometry, expected) in canonical_geometries(case.line_words)
            .into_iter()
            .zip(expectations)
        {
            let analysis = match analyze_nest(case.lowering.nest(), &geometry) {
                Ok(a) => a,
                Err(e) => unreachable!("canonical workload nest undecidable: {e}"),
            };
            let verdict_ok = matches_workload(expected, analysis.verdict, non_affine.is_some());
            if !verdict_ok {
                findings.push(Finding::gate(
                    "VC103",
                    &format!("worksuite:{}", case.name),
                    format!(
                        "workload verdict drift under {geometry}: expected {expected:?}, \
                         interpreter says {}",
                        analysis.verdict
                    ),
                ));
            }
            results.push(WorkloadSuiteResult {
                workload: case.name.into(),
                geometry: analysis.geometry,
                expected,
                verdict: analysis.verdict,
                enumerated_lines: analysis.enumerated_lines,
                non_affine: non_affine.clone(),
                probabilistic: profile
                    .as_ref()
                    .map(|p| analyze_profile(p, accesses, &geometry)),
                word_set_ok: word_set_failure.is_none(),
                ok: verdict_ok && word_set_failure.is_none(),
            });
        }
    }
    (results, findings)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    /// The reference the sorted footprints are checked against: an
    /// ordered tree with one node per `(word, stream)` pair.
    fn word_set(program: &Program) -> BTreeSet<(u64, u32)> {
        program.words().collect()
    }

    #[test]
    fn footprints_and_their_differences_equal_the_ordered_word_sets() {
        // Each trace and lowering, and the merge walk between it and the
        // program before it in the table: an exact lowering against its
        // own trace, and a trace against an unrelated lowering, which
        // differ in both directions.
        type Pair = (u64, u32);
        let mut previous: Option<(Vec<Pair>, BTreeSet<Pair>)> = None;
        for case in cases() {
            let lowered = case.lowering.nest().to_program(WORKSET_CAP).unwrap();
            for program in [&case.trace, &lowered] {
                let footprint = program.footprint(1);
                let reference = word_set(program);
                assert!(footprint.iter().eq(&reference), "{}", case.name);
                if let Some((before, before_set)) = &previous {
                    assert_eq!(
                        differences(before, &footprint),
                        (
                            before_set.difference(&reference).count(),
                            reference.difference(before_set).count()
                        ),
                        "{}",
                        case.name
                    );
                }
                previous = Some((footprint, reference));
            }
        }
    }

    #[test]
    fn canonical_workload_suite_is_green() {
        let (results, findings) = run();
        assert_eq!(results.len(), 2 * cases().len(), "two geometries per case");
        for r in &results {
            assert!(
                r.ok,
                "{} under {}: expected {:?}, got {} (word_set_ok: {})",
                r.workload,
                r.geometry,
                r.expected,
                r.verdict_label(),
                r.word_set_ok
            );
            assert_eq!(
                r.enumerated_lines, 0,
                "{} under {} fell back to enumeration",
                r.workload, r.geometry
            );
        }
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn every_generator_family_is_covered() {
        // No kernel in vcache-workloads may be silently uncovered: the
        // suite names at least one case per public generator family.
        let names: Vec<&'static str> = cases().iter().map(|c| c.name).collect();
        for family in [
            "matrix-row",
            "matrix-diag-resonant",
            "saxpy-aliased",
            "subblock-fixed",
            "matmul-small",
            "lu-small",
            "transpose-small",
            "stencil-small",
            "fft-stage",
            "fft-row-phase",
            "fft2d-capacity-edge",
            "vcm-blocked-matmul",
            "gather",
            "histogram-zipf",
            "spmv-gather",
            "numeric-matmul",
            "numeric-lu",
            "numeric-fft",
        ] {
            assert!(names.contains(&family), "missing workload case {family}");
        }
    }

    #[test]
    fn non_affine_rows_carry_reason_and_envelope_verdict() {
        let (results, _) = run();
        let gathers: Vec<_> = results
            .iter()
            .filter(|r| r.workload.starts_with("gather"))
            .collect();
        assert_eq!(gathers.len(), 4, "two gather cases x two geometries");
        for r in gathers {
            let reason = r.non_affine.as_deref().unwrap_or_default();
            assert!(reason.contains("data-dependent"), "{reason}");
            assert!(r.verdict_label().starts_with("non-affine"), "{r:?}");
        }
    }

    #[test]
    fn every_non_affine_row_carries_a_probabilistic_verdict() {
        // VC009's semantic core: no silent envelope-only rows. Affine
        // rows, conversely, never get one.
        let (results, _) = run();
        let mut non_affine_rows = 0;
        for r in &results {
            assert_eq!(
                r.non_affine.is_some(),
                r.probabilistic.is_some(),
                "{} under {}",
                r.workload,
                r.geometry
            );
            if let Some(verdict) = &r.probabilistic {
                non_affine_rows += 1;
                assert!(verdict.expected_misses() >= 0.0, "{verdict:?}");
                assert!(verdict.model().accesses > 0, "{verdict:?}");
            }
        }
        // gather, gather-wide, histogram-zipf, spmv-gather × 2 geometries.
        assert_eq!(non_affine_rows, 8);
    }

    #[test]
    fn word_set_divergence_is_a_vc103_finding() {
        // A lowering that misses a word the trace touches must fail the
        // validation with a precise count.
        let case = WorkloadCase {
            name: "broken",
            trace: Program::new(
                "broken",
                vec![vcache_workloads::VectorAccess::single(0, 1, 4, 0)],
            ),
            lowering: Lowering::Exact(LoopNest::new(
                "broken",
                vec![AffineRef::new(0, vec![Term { coeff: 1, trip: 3 }], 0)],
            )),
            line_words: 1,
            expect_pow2: WorkloadExpect::Free,
            expect_prime: WorkloadExpect::Free,
        };
        let failure = validate_lowering(&case).unwrap();
        assert!(
            failure.ends_with("1 traced (word, stream) pairs missing from the nest, 0 extra"),
            "{failure}"
        );
    }

    #[test]
    fn envelope_escape_is_detected() {
        // Word 100 is read by two streams but is one escaping word; word 0
        // lies inside the envelope.
        let case = WorkloadCase {
            name: "escapee",
            trace: Program::new(
                "escapee",
                vec![
                    vcache_workloads::VectorAccess::single(100, 1, 1, 0),
                    vcache_workloads::VectorAccess::single(100, 1, 1, 1),
                    vcache_workloads::VectorAccess::single(0, 1, 1, 1),
                    vcache_workloads::VectorAccess::single(101, 1, 1, 1),
                ],
            ),
            lowering: Lowering::NonAffine {
                reason: "test".into(),
                envelope: LoopNest::new(
                    "env",
                    vec![AffineRef::new(0, vec![Term { coeff: 1, trip: 50 }], 0)],
                ),
                profile: None,
            },
            line_words: 1,
            expect_pow2: WorkloadExpect::NonAffine {
                envelope: Expect::Free,
            },
            expect_prime: WorkloadExpect::NonAffine {
                envelope: Expect::Free,
            },
        };
        let failure = validate_lowering(&case).unwrap();
        assert_eq!(
            failure,
            "2 traced words escape the declared non-affine envelope"
        );
    }
}
