//! `vcache-check`: two-layer static analysis for the prime-cache
//! workspace.
//!
//! **Layer 1** ([`lint`]) scans the workspace's Rust sources with a small
//! hand-rolled lexer ([`source`]) and enforces the repo's invariants as
//! named rules `VC001`–`VC009` (no panicking calls in library code, no raw
//! `%` in the mapped-cache crates, no truncating address casts, crate-root
//! hygiene, traced/untraced API pairing, request spans on serve op
//! handlers, the relational-domain contract, probability math confined to
//! the probabilistic analyzer). Accepted findings live in a
//! committed [`allowlist`] with mandatory justifications; stale entries
//! are themselves findings.
//!
//! **Layer 2** ([`conflict`]) applies the paper's number theory (orbit
//! sizes `S / gcd(S, stride)`, Eq. 8, the §4 sub-block rule) to *prove*,
//! per (program, geometry) pair, whether a VCM program can take conflict
//! misses — `ConflictFree`, `SelfInterfering`, or `CrossInterfering` —
//! without simulating a single access. The committed [`suite`] pins
//! canonical verdicts; drift is a `VC100` finding.
//!
//! **Layer 3** ([`nest`], [`absint`], [`relational`], [`plan`](mod@plan),
//! [`prescribe`]) lifts the analysis from flat traces to *affine loop
//! nests*: an abstract interpreter decides every reference and reference
//! pair with one relational procedure (difference intervals,
//! congruence-class splitting, exact CRT and residue solvers), settling
//! nests whose footprints are far too large to enumerate, and a planner
//! ranks repairs (leading-dimension padding, trip shrinking, a Mersenne
//! geometry change) by cost, emitting machine-checkable certificates. The
//! committed [`nestsuite`] pins canonical nest verdicts (`VC101` on
//! drift) and demands a verifying certificate per interfering row
//! (`VC102`).
//!
//! **Workload certification** ([`worksuite`]) closes the loop back to the
//! generators: every kernel in `vcache-workloads` is paired with a
//! [`LoopNest`] lowering proven word-set-identical to its trace (or an
//! explicit non-affine exclusion with a bounded envelope), with committed
//! verdicts under both mappers. Drift or a word-set divergence is a
//! `VC103` finding, run by `vcache check --workloads`.
//!
//! **Layer 4** ([`probabilistic`]) quantifies what the affine layers
//! cannot decide: closed-form expected-conflict statistics (birthday
//! paradox over set occupancies) for non-affine workloads under both
//! mappers, in exact rational arithmetic where feasible, each verdict
//! validated against seeded Monte-Carlo [`CacheSim`] sweeps (`VC105` on
//! drift) and distilled into quantified [`prescribe::Advisory`]
//! geometry switches — run by `vcache check --probabilistic`.
//!
//! All layers are wired into `vcache check` and `scripts/ci.sh` as a
//! failing gate. A requested layer whose report section comes back
//! without a row is a `VC107` finding, so no layer passes vacuously.
//! Property tests (see `tests/properties.rs` and `tests/nests.rs`) check
//! the static verdicts against the cycle-accurate [`CacheSim`] miss
//! classification.
//!
//! [`CacheSim`]: https://docs.rs/vcache-cache

#![forbid(unsafe_code)]

pub mod absint;
pub mod allowlist;
pub mod battery;
pub mod conflict;
pub mod lint;
pub mod nest;
pub mod nestsuite;
pub mod plan;
pub mod prescribe;
pub mod probabilistic;
pub mod relational;
pub mod report;
pub mod source;
pub mod suite;
pub mod worksuite;

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use absint::observe_phase;
pub use absint::{
    analyze_nest, analyze_nest_with_budget, NestAnalysis, NestBudget, NestError, NestVerdict,
    BUDGET_CHECK_QUANTUM,
};
pub use conflict::{analyze_program, Geometry, ProgramAnalysis, Verdict};
pub use lint::Finding;
pub use nest::{AffineRef, LoopNest, Term};
pub use plan::{plan, plan_with_budget, CostWeights, Plan};
pub use prescribe::{
    advise_switch_to_prime, Advisory, Certificate, Fix, DEFAULT_MAX_PAD, MAX_PAD_BOUND,
};
pub use probabilistic::{
    analyze_profile, monte_carlo, AccessProfile, CollisionModel, MonteCarlo, ProbVerdict,
    ProbabilisticRow,
};
pub use report::Report;

/// Name of the committed allowlist file at the workspace root.
pub const ALLOWLIST_FILE: &str = "staticcheck.allow";

/// What `run_check` should do.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Workspace root to scan.
    pub root: PathBuf,
    /// Run the Layer-1 source lints.
    pub src: bool,
    /// Run the Layer-2 canonical verdict suite.
    pub programs: bool,
    /// Run the Layer-3 canonical nest suite.
    pub nests: bool,
    /// With `nests`: require a verifying repair certificate per
    /// interfering row.
    pub prescribe: bool,
    /// Run the workload-certification suite.
    pub workloads: bool,
    /// Run the Layer-4 probabilistic analysis of non-affine workloads
    /// (closed form + seeded Monte-Carlo validation). With `prescribe`,
    /// also emit quantified geometry-switch advisories.
    pub probabilistic: bool,
}

/// Error from [`run_check`].
#[derive(Debug)]
pub enum CheckError {
    /// Reading the tree or the allowlist failed.
    Io(io::Error),
    /// The allowlist file is malformed.
    Allowlist(allowlist::AllowParseError),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Allowlist(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckError {}

impl From<io::Error> for CheckError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Runs the requested layers and returns the combined report.
///
/// The allowlist is read from [`ALLOWLIST_FILE`] under `options.root`; a
/// missing file means an empty allowlist.
///
/// # Errors
///
/// Returns [`CheckError`] on I/O failure or a malformed allowlist.
pub fn run_check(options: &CheckOptions) -> Result<Report, CheckError> {
    run_check_inner(options, None)
}

/// [`run_check`] with a phase observer: `observer` sees `(phase, true)`
/// when a layer opens and `(phase, false)` when it completes, in run
/// order. Phases are `lex` (source lints + allowlist), `orbits` (Layer-2
/// suite), `absint` (Layer-3 nest suite, prescriptions included),
/// `workloads`, and `probabilistic` (Layer-4 closed forms + Monte-Carlo
/// validation) — only the requested ones fire. A layer that fails gets
/// no end call, as in [`NestBudget::observer`]: the caller closes it
/// with the error. The report is identical to [`run_check`]'s (the
/// traced/untraced pairing this workspace pins with VC005).
///
/// # Errors
///
/// As [`run_check`].
pub fn run_check_observed(
    options: &CheckOptions,
    observer: &dyn Fn(&'static str, bool),
) -> Result<Report, CheckError> {
    run_check_inner(options, Some(observer))
}

fn run_check_inner(
    options: &CheckOptions,
    observer: Option<&dyn Fn(&'static str, bool)>,
) -> Result<Report, CheckError> {
    let mut findings = Vec::new();
    let mut suite_results = Vec::new();
    let mut nest_results = Vec::new();
    let mut certificates = Vec::new();
    let mut alternatives = Vec::new();
    let mut battery_results = Vec::new();
    let mut workload_results = Vec::new();
    let mut probabilistic_results = Vec::new();
    let mut advisories = Vec::new();
    let mut src_files = 0;

    if options.src {
        observe_phase(observer, "lex", || -> Result<(), CheckError> {
            let (lints, files) = lint::scan_workspace(&options.root)?;
            findings.extend(lints);
            src_files = files;
            Ok(())
        })?;
    }
    if options.programs {
        observe_phase(observer, "orbits", || -> Result<(), CheckError> {
            let (results, drift) = suite::run();
            suite_results = results;
            findings.extend(drift);
            Ok(())
        })?;
    }
    if options.nests {
        observe_phase(observer, "absint", || -> Result<(), CheckError> {
            let outcome = nestsuite::run(options.prescribe);
            nest_results = outcome.rows;
            certificates = outcome.certificates;
            alternatives = outcome.alternatives;
            findings.extend(outcome.findings);
            // The randomized enumeration-freedom battery rides the nest
            // layer: same domain, statistical rather than canonical.
            let (rows, drift) = battery::run();
            battery_results = rows;
            findings.extend(drift);
            Ok(())
        })?;
    }
    if options.workloads {
        observe_phase(observer, "workloads", || -> Result<(), CheckError> {
            let (results, drift) = worksuite::run();
            workload_results = results;
            findings.extend(drift);
            Ok(())
        })?;
    }
    if options.probabilistic {
        observe_phase(observer, "probabilistic", || -> Result<(), CheckError> {
            let (results, drift) = probabilistic::run();
            if options.prescribe {
                advisories = prescribe::advise_switch_to_prime(&results);
            }
            probabilistic_results = results;
            findings.extend(drift);
            Ok(())
        })?;
    }

    let mut report = Report {
        findings,
        suite: suite_results,
        nests: nest_results,
        certificates,
        alternatives,
        battery: battery_results,
        workloads: workload_results,
        probabilistic: probabilistic_results,
        advisories,
    };
    let empty = empty_sections(options, &report, src_files);
    report.findings.extend(empty);

    // The allowlist only makes sense against a source scan: without one,
    // every entry would look stale (VC006) in a `--programs`-only run.
    // It runs after all layers (any finding is suppressible) and outside
    // any phase — it is a microsecond-scale filter, not analysis work.
    if options.src {
        let entries = read_allowlist(&options.root)?;
        allowlist::apply(&mut report.findings, &entries, ALLOWLIST_FILE);
    }
    Ok(report)
}

/// A `VC107` finding for a requested source scan that read no `.rs`
/// file under the root, and for each report section that a requested
/// layer fills but that came back without a row: a layer that silently
/// produced nothing fails the gate instead of passing it vacuously.
fn empty_sections(options: &CheckOptions, report: &Report, src_files: usize) -> Vec<Finding> {
    let nests_prescribe = options.nests && options.prescribe;
    let probabilistic_prescribe = options.probabilistic && options.prescribe;
    let src = (options.src && src_files == 0).then(|| {
        Finding::gate(
            "VC107",
            "check:src",
            format!(
                "`--src` was requested but read no `.rs` file under `{}`",
                options.root.display()
            ),
        )
    });
    let sections = [
        (
            options.programs,
            "--programs",
            "suite",
            report.suite.is_empty(),
        ),
        (options.nests, "--nests", "nests", report.nests.is_empty()),
        (
            options.nests,
            "--nests",
            "battery",
            report.battery.is_empty(),
        ),
        (
            nests_prescribe,
            "--nests --prescribe",
            "certificates",
            report.certificates.is_empty(),
        ),
        (
            nests_prescribe,
            "--nests --prescribe",
            "alternatives",
            report.alternatives.is_empty(),
        ),
        (
            options.workloads,
            "--workloads",
            "workloads",
            report.workloads.is_empty(),
        ),
        (
            options.probabilistic,
            "--probabilistic",
            "probabilistic",
            report.probabilistic.is_empty(),
        ),
        (
            probabilistic_prescribe,
            "--probabilistic --prescribe",
            "advisories",
            report.advisories.is_empty(),
        ),
    ];
    let empty = sections
        .into_iter()
        .filter(|&(requested, _, _, empty)| requested && empty)
        .map(|(_, switches, section, _)| {
            Finding::gate(
                "VC107",
                &format!("check:{section}"),
                format!("`{switches}` was requested but produced no `{section}` rows"),
            )
        });
    src.into_iter().chain(empty).collect()
}

fn read_allowlist(root: &Path) -> Result<Vec<allowlist::AllowEntry>, CheckError> {
    let path = root.join(ALLOWLIST_FILE);
    match std::fs::read_to_string(&path) {
        Ok(text) => allowlist::parse(&text).map_err(CheckError::Allowlist),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(CheckError::Io(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_only_run_needs_no_filesystem() {
        let report = run_check(&CheckOptions {
            root: PathBuf::from("/nonexistent-vcache-root"),
            src: false,
            programs: true,
            nests: false,
            prescribe: false,
            workloads: false,
            probabilistic: false,
        })
        .unwrap();
        assert!(!report.suite.is_empty());
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn nest_suite_run_emits_rows_and_certificates() {
        let report = run_check(&CheckOptions {
            root: PathBuf::from("/nonexistent-vcache-root"),
            src: false,
            programs: false,
            nests: true,
            prescribe: true,
            workloads: false,
            probabilistic: false,
        })
        .unwrap();
        assert_eq!(report.nests.len(), 28);
        assert!(!report.certificates.is_empty());
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn workload_suite_run_emits_rows() {
        let report = run_check(&CheckOptions {
            root: PathBuf::from("/nonexistent-vcache-root"),
            src: false,
            programs: false,
            nests: false,
            prescribe: false,
            workloads: true,
            probabilistic: false,
        })
        .unwrap();
        assert!(!report.workloads.is_empty());
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn observed_run_matches_unobserved_and_brackets_phases() {
        use std::cell::RefCell;
        let options = CheckOptions {
            root: PathBuf::from("/nonexistent-vcache-root"),
            src: false,
            programs: true,
            nests: true,
            prescribe: false,
            workloads: false,
            probabilistic: false,
        };
        let plain = run_check(&options).unwrap();
        let events: RefCell<Vec<(&'static str, bool)>> = RefCell::new(Vec::new());
        let obs = |phase: &'static str, begin: bool| events.borrow_mut().push((phase, begin));
        let observed = run_check_observed(&options, &obs).unwrap();
        assert_eq!(format!("{plain:?}"), format!("{observed:?}"));
        assert_eq!(
            events.into_inner(),
            vec![
                ("orbits", true),
                ("orbits", false),
                ("absint", true),
                ("absint", false),
            ]
        );
    }

    #[test]
    fn probabilistic_run_emits_validated_rows_and_advisories() {
        let report = run_check(&CheckOptions {
            root: PathBuf::from("/nonexistent-vcache-root"),
            src: false,
            programs: false,
            nests: false,
            prescribe: true,
            workloads: false,
            probabilistic: true,
        })
        .unwrap();
        assert!(report.is_clean(), "{}", report.render_text());
        // Four non-affine workloads × two geometries.
        assert_eq!(report.probabilistic.len(), 8);
        assert!(report.probabilistic.iter().all(|r| r.ok));
        // At least the strided spmv-gather earns a quantified switch.
        assert!(
            report
                .advisories
                .iter()
                .any(|a| a.workload == "spmv-gather" && a.reduction > 100.0),
            "{:?}",
            report.advisories
        );
        let text = report.render_text();
        assert!(text.contains("probabilistic conflict analysis"), "{text}");
        assert!(text.contains("geometry advisories"), "{text}");
    }

    #[test]
    fn an_empty_requested_section_is_a_vc107_finding() {
        let every = CheckOptions {
            root: PathBuf::from("/nonexistent-vcache-root"),
            src: true,
            programs: true,
            nests: true,
            prescribe: true,
            workloads: true,
            probabilistic: true,
        };
        let empty = Report::default();
        let findings = empty_sections(&every, &empty, 0);
        let paths: Vec<&str> = findings.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "check:src",
                "check:suite",
                "check:nests",
                "check:battery",
                "check:certificates",
                "check:alternatives",
                "check:workloads",
                "check:probabilistic",
                "check:advisories",
            ]
        );
        assert!(findings.iter().all(|f| f.rule == "VC107" && !f.allowed));
        assert_eq!(
            findings[0].message,
            "`--src` was requested but read no `.rs` file under `/nonexistent-vcache-root`"
        );
        assert_eq!(
            findings[4].message,
            "`--nests --prescribe` was requested but produced no `certificates` rows"
        );
        let mut report = empty.clone();
        report.findings = findings;
        assert!(!report.is_clean());
        // Sections no switch asked for may stay empty, and a scan that
        // read a file is not empty.
        let src_only = CheckOptions {
            programs: false,
            nests: false,
            prescribe: true,
            workloads: false,
            probabilistic: false,
            ..every
        };
        assert!(empty_sections(&src_only, &empty, 1).is_empty());
        // A scan of a root with no Rust source reads nothing.
        let report = run_check(&src_only).unwrap();
        assert_eq!(report.findings.len(), 1, "{}", report.render_text());
        assert_eq!(report.findings[0].path, "check:src");
    }

    #[test]
    fn missing_allowlist_is_empty() {
        let entries = read_allowlist(Path::new("/nonexistent-vcache-root")).unwrap();
        assert!(entries.is_empty());
    }
}
