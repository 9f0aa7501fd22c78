//! Rendering check results as text (for terminals/CI logs) or JSON (for
//! tooling), plus the pass/fail decision.

use serde::Serialize;

use crate::battery::BatteryResult;
use crate::lint::Finding;
use crate::nestsuite::NestSuiteResult;
use crate::prescribe::{Advisory, Certificate};
use crate::probabilistic::ProbabilisticRow;
use crate::suite::SuiteResult;
use crate::worksuite::WorkloadSuiteResult;

/// The combined outcome of a `vcache check` run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Report {
    /// All findings, allowlisted ones included (marked `allowed`).
    pub findings: Vec<Finding>,
    /// Canonical suite rows (empty when `--programs` was not requested).
    pub suite: Vec<SuiteResult>,
    /// Canonical nest-suite rows (empty when `--nests` was not
    /// requested).
    pub nests: Vec<NestSuiteResult>,
    /// Verified repair certificates for interfering nest rows — the
    /// planner's cheapest choice per row (empty unless
    /// `--nests --prescribe`).
    pub certificates: Vec<Certificate>,
    /// Every other ranked repair the planner verified, across all
    /// interfering rows, in ranking order (empty unless
    /// `--nests --prescribe`).
    pub alternatives: Vec<Certificate>,
    /// Aggregated rows of the randomized enumeration-freedom battery
    /// (empty when `--nests` was not requested).
    pub battery: Vec<BatteryResult>,
    /// Workload-certification rows (empty when `--workloads` was not
    /// requested).
    pub workloads: Vec<WorkloadSuiteResult>,
    /// Probabilistic (Layer-4) rows with Monte-Carlo validation (empty
    /// when `--probabilistic` was not requested).
    pub probabilistic: Vec<ProbabilisticRow>,
    /// Quantified geometry-switch advisories for non-affine workloads
    /// (empty unless `--probabilistic --prescribe`).
    pub advisories: Vec<Advisory>,
}

impl Report {
    /// Findings that fail the gate (not covered by the allowlist).
    pub fn failing(&self) -> impl Iterator<Item = &Finding> + '_ {
        self.findings.iter().filter(|f| !f.allowed)
    }

    /// True when nothing fails the gate.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.failing().next().is_none()
    }

    /// Human-readable rendering.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let status = if f.allowed { "allow" } else { " FAIL" };
            out.push_str(&format!(
                "[{status}] {} {}:{} {}\n",
                f.rule, f.path, f.line, f.message
            ));
            if !f.snippet.is_empty() {
                out.push_str(&format!("        {}\n", f.snippet));
            }
        }
        if !self.suite.is_empty() {
            out.push_str("\ncanonical verdict suite:\n");
            for r in &self.suite {
                let mark = if r.ok { "ok  " } else { "FAIL" };
                out.push_str(&format!(
                    "  [{mark}] {:<28} {:<6} expected {:<9} got {}\n",
                    r.program,
                    r.geometry,
                    format!("{:?}", r.expected),
                    r.verdict
                ));
            }
        }
        if !self.nests.is_empty() {
            out.push_str("\ncanonical nest suite:\n");
            for r in &self.nests {
                let mark = if r.ok { "ok  " } else { "FAIL" };
                out.push_str(&format!(
                    "  [{mark}] {:<28} {:<6} expected {:<9} got {}\n",
                    r.nest,
                    r.geometry,
                    format!("{:?}", r.expected),
                    r.verdict
                ));
            }
        }
        if !self.battery.is_empty() {
            out.push_str("\nenumeration-freedom battery:\n");
            for r in &self.battery {
                let mark = if r.ok { "ok  " } else { "FAIL" };
                out.push_str(&format!(
                    "  [{mark}] {:<6} {} nests ({} free / {} interfering), \
                     {} enumerated lines, {} fallbacks, {} errors\n",
                    r.geometry,
                    r.nests,
                    r.conflict_free,
                    r.interfering,
                    r.enumerated_lines,
                    r.fallbacks,
                    r.errors
                ));
            }
        }
        if !self.workloads.is_empty() {
            out.push_str("\nworkload certification:\n");
            for r in &self.workloads {
                let mark = if r.ok { "ok  " } else { "FAIL" };
                out.push_str(&format!(
                    "  [{mark}] {:<28} {:<6} expected {:<9} got {}\n",
                    r.workload,
                    r.geometry,
                    format!("{:?}", r.expected),
                    r.verdict_label()
                ));
            }
        }
        if !self.probabilistic.is_empty() {
            out.push_str("\nprobabilistic conflict analysis:\n");
            for r in &self.probabilistic {
                let mark = if r.ok { "ok  " } else { "FAIL" };
                out.push_str(&format!(
                    "  [{mark}] {:<28} {:<6} expected {:>9.3} conflict misses, \
                     MC {:>9.3} ± {:.3} ({} sweeps, {})\n",
                    r.workload,
                    r.geometry,
                    r.verdict.expected_misses(),
                    r.monte_carlo.empirical_mean,
                    r.monte_carlo.std_err,
                    r.monte_carlo.sweeps,
                    match r.verdict.model().arithmetic {
                        crate::probabilistic::Arithmetic::ExactRational => "exact",
                        crate::probabilistic::Arithmetic::FloatNearestEven => "float",
                    }
                ));
            }
        }
        if !self.advisories.is_empty() {
            out.push_str("\ngeometry advisories:\n");
            for a in &self.advisories {
                out.push_str(&format!(
                    "  {:<28} {}: expected misses {:.3} -> {:.3} (reduction {:.3})\n",
                    a.workload, a.fix, a.expected_misses_pow2, a.expected_misses_prime, a.reduction
                ));
            }
        }
        if !self.certificates.is_empty() {
            out.push_str("\nrepair certificates (best per row):\n");
            for c in &self.certificates {
                out.push_str(&format!(
                    "  {:<28} {:<6} {} (cost {:.1})\n",
                    c.nest, c.original_geometry, c.fix, c.cost
                ));
            }
        }
        if !self.alternatives.is_empty() {
            out.push_str("\nranked alternatives:\n");
            for c in &self.alternatives {
                out.push_str(&format!(
                    "  {:<28} {:<6} {} (cost {:.1})\n",
                    c.nest, c.original_geometry, c.fix, c.cost
                ));
            }
        }
        let allowed = self.findings.iter().filter(|f| f.allowed).count();
        let failing = self.findings.len() - allowed;
        out.push_str(&format!(
            "\n{failing} failing finding(s), {allowed} allowlisted",
        ));
        if !self.suite.is_empty() {
            let bad = self.suite.iter().filter(|r| !r.ok).count();
            out.push_str(&format!(
                ", suite {}/{} ok",
                self.suite.len() - bad,
                self.suite.len()
            ));
        }
        if !self.nests.is_empty() {
            let bad = self.nests.iter().filter(|r| !r.ok).count();
            out.push_str(&format!(
                ", nests {}/{} ok",
                self.nests.len() - bad,
                self.nests.len()
            ));
        }
        if !self.workloads.is_empty() {
            let bad = self.workloads.iter().filter(|r| !r.ok).count();
            out.push_str(&format!(
                ", workloads {}/{} ok",
                self.workloads.len() - bad,
                self.workloads.len()
            ));
        }
        if !self.probabilistic.is_empty() {
            let bad = self.probabilistic.iter().filter(|r| !r.ok).count();
            out.push_str(&format!(
                ", probabilistic {}/{} ok",
                self.probabilistic.len() - bad,
                self.probabilistic.len()
            ));
        }
        out.push('\n');
        out
    }

    /// JSON rendering (stable field names; see the `Finding` and
    /// `SuiteResult` structs).
    ///
    /// # Errors
    ///
    /// Propagates serializer errors (practically unreachable for these
    /// types).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &str, allowed: bool) -> Finding {
        Finding {
            rule: rule.into(),
            path: "crates/x/src/a.rs".into(),
            line: 7,
            message: "m".into(),
            snippet: "x.unwrap()".into(),
            allowed,
        }
    }

    #[test]
    fn clean_only_when_all_failing_are_allowed() {
        let report = Report {
            findings: vec![finding("VC001", true)],
            suite: vec![],
            nests: vec![],
            certificates: vec![],
            alternatives: vec![],
            battery: vec![],
            workloads: vec![],
            probabilistic: vec![],
            advisories: vec![],
        };
        assert!(report.is_clean());
        let report = Report {
            findings: vec![finding("VC001", true), finding("VC002", false)],
            suite: vec![],
            nests: vec![],
            certificates: vec![],
            alternatives: vec![],
            battery: vec![],
            workloads: vec![],
            probabilistic: vec![],
            advisories: vec![],
        };
        assert!(!report.is_clean());
        assert_eq!(report.failing().count(), 1);
    }

    #[test]
    fn text_rendering_shows_status_and_totals() {
        let report = Report {
            findings: vec![finding("VC001", true), finding("VC002", false)],
            suite: vec![],
            nests: vec![],
            certificates: vec![],
            alternatives: vec![],
            battery: vec![],
            workloads: vec![],
            probabilistic: vec![],
            advisories: vec![],
        };
        let text = report.render_text();
        assert!(text.contains("[allow] VC001"));
        assert!(text.contains("[ FAIL] VC002"));
        assert!(text.contains("1 failing finding(s), 1 allowlisted"));
    }

    #[test]
    fn json_rendering_round_trips_fields() {
        let report = Report {
            findings: vec![finding("VC003", false)],
            suite: vec![],
            nests: vec![],
            certificates: vec![],
            alternatives: vec![],
            battery: vec![],
            workloads: vec![],
            probabilistic: vec![],
            advisories: vec![],
        };
        let json = report.to_json().unwrap();
        let compact = json.replace(": ", ":");
        assert!(compact.contains("\"rule\":\"VC003\""), "{json}");
        assert!(compact.contains("\"line\":7"), "{json}");
        assert!(compact.contains("\"allowed\":false"), "{json}");
    }
}
