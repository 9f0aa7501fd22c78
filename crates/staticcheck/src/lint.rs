//! Layer 1: source lints enforcing the workspace's coding invariants.
//!
//! Each rule has a stable identifier (`VC001`–`VC007`) so findings can be
//! allowlisted and tracked across refactors:
//!
//! | Rule  | Invariant |
//! |-------|-----------|
//! | VC001 | No `unwrap`/`expect`/`panic!`-family calls outside `#[cfg(test)]` items and `tests/` trees. |
//! | VC002 | No raw `%` reduction inside the mapped-cache crates (`vcache-cache`, `vcache-core`): all geometry reduction routes through `MersenneModulus`/bit masks. |
//! | VC003 | No truncating `as` casts on address-typed values (identifiers mentioning `addr`/`word`/`line`/`base` cast to sub-`u64` integers). In `crates/workloads/src/`, where every integer is a word address, stride, or dimension, the rule is strict: *any* `as` cast to a signed or sub-`u64` integer is a finding regardless of the identifier (use `signed_stride`/`i64::try_from`). |
//! | VC004 | Every workspace crate root carries `#![forbid(unsafe_code)]` and a `//!` doc header. |
//! | VC005 | Every traced simulator entry point `fn x_traced` has an untraced sibling `fn x` in the same file. |
//! | VC007 | Every serve op handler (`fn op_*` under `crates/serve/src/`) takes a request span, so no request stage can silently drop out of the span tree. |
//! | VC008 | The relational-domain contract in `crates/staticcheck/src/`: no `Shape::Lattice` sites outside `absint.rs` internals, and every `NeedsEnumeration(` site carries a machine-readable reason (a string literal, the declaration, or a forwarded `reason` binding). |
//! | VC009 | The probabilistic-layer contract in `crates/staticcheck/src/`: every `Lowering::NonAffine` site that declares a `reason:` also carries an access `profile` (no silent envelope-only worksuite rows), and transcendental probability math (`.powf(`/`.powi(`/`.exp(`/`.ln(`/`.sqrt(`) stays inside `probabilistic.rs`. |
//!
//! The rules are lexical (see [`crate::source`]): `.expect(` is only
//! flagged when its first argument is a string literal, so the model
//! crate's `StrideModel::expect(|s| …)` expectation operator is not a
//! finding. `vendor/` stand-in crates are third-party API surface and are
//! checked only for VC004.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::Serialize;

use crate::source::SourceFile;

/// All Layer-1 rule identifiers, with their one-line descriptions.
pub const RULES: [(&str, &str); 8] = [
    (
        "VC001",
        "no unwrap/expect/panic! outside #[cfg(test)] and tests/",
    ),
    (
        "VC002",
        "no raw % modular reduction in the mapped-cache crates (use MersenneModulus)",
    ),
    (
        "VC003",
        "no truncating casts on address-typed values (strict in the workload crate)",
    ),
    (
        "VC004",
        "crate roots carry #![forbid(unsafe_code)] and a //! doc header",
    ),
    (
        "VC005",
        "traced/untraced simulator entry points come in pairs",
    ),
    ("VC007", "serve op handlers thread a request span"),
    (
        "VC008",
        "Shape::Lattice stays inside absint.rs; NeedsEnumeration always carries a reason",
    ),
    (
        "VC009",
        "NonAffine rows carry an access profile; probability math stays inside probabilistic.rs",
    ),
];

/// One lint (or semantic-suite) finding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Finding {
    /// Stable rule identifier (`VC001`…).
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// True when an allowlist entry covers this finding.
    pub allowed: bool,
}

impl Finding {
    fn new(rule: &str, path: &str, line: usize, message: String, snippet: &str) -> Self {
        Self {
            rule: rule.to_owned(),
            path: path.to_owned(),
            line,
            message,
            snippet: snippet.trim().to_owned(),
            allowed: false,
        }
    }

    /// A finding of a semantic gate: it names a report row, not a
    /// source line, so it has line 0 and no snippet.
    pub(crate) fn gate(rule: &str, path: &str, message: String) -> Self {
        Self::new(rule, path, 0, message, "")
    }
}

/// Scans every workspace source tree under `root` and returns all
/// findings (allowlist not yet applied) with the number of files read.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn scan_workspace(root: &Path) -> io::Result<(Vec<Finding>, usize)> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples", "vendor"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut findings = Vec::new();
    for path in &files {
        let text = fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let file = SourceFile::scan(rel, &text);
        findings.extend(check_file(&file));
    }
    Ok((findings, files.len()))
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs every applicable rule on one scanned file.
#[must_use]
pub fn check_file(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let vendor = file.path.starts_with("vendor/");
    // `tests/` trees are harness code: panicking on bad setup is
    // idiomatic there, as in #[cfg(test)] items.
    let test_tree = file.path.split('/').any(|c| c == "tests");
    let crate_root = is_crate_root(&file.path);

    if crate_root {
        findings.extend(vc004(file));
    }
    if vendor {
        return findings; // third-party stand-ins: VC004 only
    }
    if !test_tree {
        findings.extend(vc001(file));
        findings.extend(vc003(file));
        findings.extend(vc005(file));
        if file.path.starts_with("crates/cache/src/") || file.path.starts_with("crates/core/src/") {
            findings.extend(vc002(file));
        }
        if file.path.starts_with("crates/serve/src/") {
            findings.extend(vc007(file));
        }
        if file.path.starts_with("crates/staticcheck/src/") {
            findings.extend(vc008(file));
            findings.extend(vc009(file));
        }
    }
    findings
}

fn is_crate_root(path: &str) -> bool {
    path == "src/lib.rs"
        || (path.ends_with("/src/lib.rs")
            && (path.starts_with("crates/") || path.starts_with("vendor/")))
}

/// VC001: panic-prone calls in non-test code.
fn vc001(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (line_no, raw, code) in file.non_test_lines() {
        for needle in ["panic!(", "todo!(", "unimplemented!("] {
            if code.contains(needle) {
                findings.push(Finding::new(
                    "VC001",
                    &file.path,
                    line_no,
                    format!("`{}` in non-test code", &needle[..needle.len() - 1]),
                    raw,
                ));
            }
        }
        if code.contains(".unwrap()") {
            findings.push(Finding::new(
                "VC001",
                &file.path,
                line_no,
                "`.unwrap()` in non-test code".into(),
                raw,
            ));
        }
        // `.expect(` counts only with a string-literal argument; a closure
        // argument is the model crate's expectation operator.
        let mut rest = code;
        while let Some(pos) = rest.find(".expect(") {
            let after = rest[pos + ".expect(".len()..].trim_start();
            if after.starts_with('"') {
                findings.push(Finding::new(
                    "VC001",
                    &file.path,
                    line_no,
                    "`.expect(\"…\")` in non-test code".into(),
                    raw,
                ));
                break;
            }
            rest = &rest[pos + ".expect(".len()..];
        }
    }
    findings
}

/// VC002: raw `%` in the mapped-cache crates.
fn vc002(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (line_no, raw, code) in file.non_test_lines() {
        if code.contains('%') {
            findings.push(Finding::new(
                "VC002",
                &file.path,
                line_no,
                "raw `%` reduction in a mapped-cache crate (route through MersenneModulus or a bit mask)".into(),
                raw,
            ));
        }
    }
    findings
}

const NARROW_INTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];
/// Strict (workload-crate) targets add `i64`: a `u64 as i64` cast does
/// not truncate bits but silently wraps large word addresses into
/// negative strides — the bug class behind the `transpose_trace` stride
/// cast.
const STRICT_INTS: [&str; 7] = ["u8", "u16", "u32", "i8", "i16", "i32", "i64"];
const ADDR_MARKERS: [&str; 4] = ["addr", "word", "line", "base"];

/// Paths where every integer is a word address, stride, or dimension, so
/// VC003 applies regardless of identifier naming.
fn vc003_is_strict(path: &str) -> bool {
    path.starts_with("crates/workloads/src/")
}

/// VC003: truncating casts on address-typed expressions.
fn vc003(file: &SourceFile) -> Vec<Finding> {
    let strict = vc003_is_strict(&file.path);
    let mut findings = Vec::new();
    for (line_no, raw, code) in file.non_test_lines() {
        let mut offset = 0;
        while let Some(pos) = code[offset..].find(" as ") {
            let abs = offset + pos;
            let after = code[abs + 4..].trim_start();
            let targets: &[&str] = if strict { &STRICT_INTS } else { &NARROW_INTS };
            let target = targets
                .iter()
                .find(|t| after.starts_with(**t) && !ident_continues(after, t.len()));
            if let Some(target) = target {
                // The expression token just before ` as `: the contiguous
                // non-whitespace run, lowercased.
                let before = code[..abs]
                    .rsplit(char::is_whitespace)
                    .next()
                    .unwrap_or("")
                    .to_ascii_lowercase();
                if strict {
                    findings.push(Finding::new(
                        "VC003",
                        &file.path,
                        line_no,
                        format!(
                            "workload-crate value cast by `as {target}` \
                             (addresses/strides; use signed_stride or i64::try_from)"
                        ),
                        raw,
                    ));
                } else if ADDR_MARKERS.iter().any(|m| before.contains(m)) {
                    findings.push(Finding::new(
                        "VC003",
                        &file.path,
                        line_no,
                        format!("address-typed expression truncated by `as {target}`"),
                        raw,
                    ));
                }
            }
            offset = abs + 4;
        }
    }
    findings
}

fn ident_continues(s: &str, len: usize) -> bool {
    s[len..]
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// VC004: crate-root hygiene.
fn vc004(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let has_forbid = file
        .raw_lines
        .iter()
        .any(|l| l.contains("#![forbid(unsafe_code)]"));
    if !has_forbid {
        findings.push(Finding::new(
            "VC004",
            &file.path,
            0,
            "crate root lacks `#![forbid(unsafe_code)]`".into(),
            "",
        ));
    }
    let first = file
        .raw_lines
        .iter()
        .find(|l| !l.trim().is_empty())
        .map(|l| l.trim())
        .unwrap_or("");
    if !first.starts_with("//!") {
        findings.push(Finding::new(
            "VC004",
            &file.path,
            1,
            "crate root does not open with a `//!` doc header".into(),
            first,
        ));
    }
    findings
}

/// VC005: `fn x_traced` without a sibling `fn x` in the same file.
fn vc005(file: &SourceFile) -> Vec<Finding> {
    let mut names = Vec::new();
    let mut traced = Vec::new();
    for (line_no, raw, code) in file.non_test_lines() {
        let mut rest = code;
        while let Some(pos) = rest.find("fn ") {
            let boundary = pos == 0
                || rest[..pos]
                    .chars()
                    .next_back()
                    .is_some_and(|c| !c.is_alphanumeric() && c != '_');
            let after = &rest[pos + 3..];
            if boundary {
                let name: String = after
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    if let Some(base) = name.strip_suffix("_traced") {
                        traced.push((base.to_owned(), line_no, raw.trim().to_owned()));
                    }
                    names.push(name);
                }
            }
            rest = after;
        }
    }
    traced
        .into_iter()
        .filter(|(base, _, _)| !names.iter().any(|n| n == base))
        .map(|(base, line_no, snippet)| {
            Finding::new(
                "VC005",
                &file.path,
                line_no,
                format!("`fn {base}_traced` has no untraced sibling `fn {base}` in this file"),
                &snippet,
            )
        })
        .collect()
}

/// The first `fn op_<name>` defined on this line (identifier-boundary
/// checked so `serve_fn op_x` in a string or a `reop_` prefix cannot
/// match), or `None`.
fn op_handler_name(code: &str) -> Option<String> {
    let mut rest = code;
    loop {
        let pos = rest.find("fn op_")?;
        let boundary = pos == 0
            || rest[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| !c.is_alphanumeric() && c != '_');
        let after = &rest[pos + 3..];
        if boundary {
            let name: String = after
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if name.len() > "op_".len() {
                return Some(name);
            }
        }
        rest = after;
    }
}

/// VC007: serve op handlers take a request span. The daemon's span-tree
/// completeness guarantee ("every accepted request yields a full tree")
/// only holds if no handler can run outside a span; this rule makes the
/// omission a lint instead of a silent observability hole.
fn vc007(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for i in 0..file.code_lines.len() {
        if file.in_test[i] {
            continue;
        }
        let Some(name) = op_handler_name(&file.code_lines[i]) else {
            continue;
        };
        // Join the signature: this code line plus what follows until the
        // body opens. Signatures in this workspace fit well inside the
        // bound; an unterminated one is checked as-is.
        let mut sig = String::new();
        for line in file.code_lines.iter().skip(i).take(8) {
            sig.push_str(line);
            sig.push(' ');
            if line.contains('{') || line.contains(';') {
                break;
            }
        }
        let sig = sig.split('{').next().unwrap_or("");
        if !sig.contains("span") {
            findings.push(Finding::new(
                "VC007",
                &file.path,
                i + 1,
                format!(
                    "serve op handler `fn {name}` does not take a request span \
                     (add a `span: &SpanHandle` parameter)"
                ),
                &file.raw_lines[i],
            ));
        }
    }
    findings
}

/// VC008: the relational-domain contract. `Shape::Lattice` is an
/// `absint.rs` internal — a construction or match site anywhere else in
/// the static-analysis crate bypasses the relational decision procedure
/// that PR introduced to keep lattice nests enumeration-free. And a rule
/// that gives up must say why: every `NeedsEnumeration(` site must carry
/// a machine-readable reason — a string literal, the `&'static str`
/// declaration itself, or a forwarded `reason` binding.
fn vc008(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let lattice_ok = file.path.ends_with("/absint.rs");
    for (line_no, raw, code) in file.non_test_lines() {
        if !lattice_ok && code.contains("Shape::Lattice") {
            findings.push(Finding::new(
                "VC008",
                &file.path,
                line_no,
                "`Shape::Lattice` outside absint.rs (lattice refs route through the relational domain)"
                    .into(),
                raw,
            ));
        }
        let mut rest = code;
        while let Some(pos) = rest.find("NeedsEnumeration(") {
            let after = rest[pos + "NeedsEnumeration(".len()..].trim_start();
            let carried =
                after.starts_with('"') || after.starts_with('&') || after.starts_with("reason)");
            if !carried {
                findings.push(Finding::new(
                    "VC008",
                    &file.path,
                    line_no,
                    "`NeedsEnumeration` without a machine-readable reason (pass a string literal)"
                        .into(),
                    raw,
                ));
            }
            rest = &rest[pos + "NeedsEnumeration(".len()..];
        }
    }
    findings
}

/// Tokens of transcendental/float probability math, allowed only in
/// `probabilistic.rs`. (`.exp(` does not match `.expect(` — the paren
/// must follow immediately.)
const PROBABILITY_MATH: [&str; 5] = [".powf(", ".powi(", ".exp(", ".ln(", ".sqrt("];

/// How many code lines a `Lowering::NonAffine {` construction may span
/// before its `profile` field; canonical sites fit in half this.
const VC009_WINDOW: usize = 20;

/// VC009: the probabilistic-layer contract. Every `Lowering::NonAffine`
/// site that declares a `reason:` (a construction or the declaration —
/// pattern matches bind `reason` without a colon) must also carry an
/// access `profile` within the construction window, so no worksuite row
/// can silently opt out of the Layer-4 analysis. And closed-form
/// probability math is confined to `probabilistic.rs`: transcendental
/// float calls elsewhere in the static-analysis crate are ad-hoc
/// probability arithmetic bypassing the audited model.
fn vc009(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let confined = file.path.ends_with("/probabilistic.rs");
    for i in 0..file.code_lines.len() {
        if file.in_test[i] {
            continue;
        }
        let code = &file.code_lines[i];
        if !confined {
            for needle in PROBABILITY_MATH {
                if code.contains(needle) {
                    findings.push(Finding::new(
                        "VC009",
                        &file.path,
                        i + 1,
                        format!(
                            "`{}` outside probabilistic.rs (closed-form probability math \
                             lives in the probabilistic analyzer)",
                            &needle[1..needle.len() - 1]
                        ),
                        &file.raw_lines[i],
                    ));
                }
            }
        }
        // The qualified construction path only: the bare `NonAffine {`
        // also appears in expected-verdict variants, whose forward
        // window could leak into a neighbouring case's `reason:`.
        if code.contains("Lowering::NonAffine {") {
            let window = &file.code_lines[i..file.code_lines.len().min(i + VC009_WINDOW)];
            let has_reason = window.iter().any(|l| l.contains("reason:"));
            let has_profile = window.iter().any(|l| l.contains("profile"));
            if has_reason && !has_profile {
                findings.push(Finding::new(
                    "VC009",
                    &file.path,
                    i + 1,
                    "`Lowering::NonAffine` without an access `profile` (no silent \
                     envelope-only worksuite rows)"
                        .into(),
                    &file.raw_lines[i],
                ));
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(path: &str, src: &str) -> Vec<Finding> {
        check_file(&SourceFile::scan(path, src))
    }

    #[test]
    fn vc001_flags_unwrap_expect_panic_outside_tests() {
        let src = "\
fn f() {
    a.unwrap();
    b.expect(\"boom\");
    panic!(\"no\");
}
#[cfg(test)]
mod tests {
    fn t() { c.unwrap(); d.expect(\"fine\"); panic!(\"ok\"); }
}
";
        let f = scan("crates/x/src/a.rs", src);
        let rules: Vec<&str> = f.iter().map(|f| f.rule.as_str()).collect();
        assert_eq!(rules, ["VC001", "VC001", "VC001"]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn vc001_ignores_expectation_operator_and_comments() {
        let src = "fn f() {\n    stride.expect(|s| g(s)); // .unwrap() in comment\n}\n";
        assert!(scan("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn vc001_exempts_only_tests_trees() {
        let src = "fn f() { a.unwrap(); }\n";
        assert!(scan("tests/props.rs", src).is_empty());
        assert!(scan("crates/x/tests/props.rs", src).is_empty());
        assert_eq!(scan("crates/x/benches/b.rs", src).len(), 1);
    }

    #[test]
    fn vc002_scoped_to_mapped_cache_crates() {
        let src = "//! d\nfn f(a: u64, m: u64) -> u64 { a % m }\n";
        assert_eq!(scan("crates/cache/src/a.rs", src).len(), 1);
        assert_eq!(scan("crates/core/src/a.rs", src).len(), 1);
        assert!(scan("crates/model/src/a.rs", src).is_empty());
        assert!(scan("crates/mem/src/a.rs", src).is_empty());
    }

    #[test]
    fn vc002_ignores_percent_in_strings_and_comments() {
        let src = "fn f() { println!(\"{:>6.2}%\", x); } // 50%\n";
        assert!(scan("crates/cache/src/a.rs", src).is_empty());
    }

    #[test]
    fn vc003_truncating_addr_casts() {
        let bad = "fn f(addr: u64) -> u32 { addr as u32 }\n";
        let f = scan("crates/x/src/a.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "VC003");
        // Widening, non-address, and usize casts are fine.
        for ok in [
            "fn f(addr: u32) -> u64 { addr as u64 }\n",
            "fn f(ways: u64) -> u32 { ways as u32 }\n",
            "fn f(line: u64) -> usize { line as usize }\n",
            "fn f(line_words: u64) -> f64 { line_words as f64 }\n",
        ] {
            assert!(scan("crates/x/src/a.rs", ok).is_empty(), "{ok}");
        }
    }

    #[test]
    fn vc003_is_strict_in_the_workload_crate() {
        // No address marker on `q`, and `i64` is not a narrow target —
        // yet in the workload crate both facts are irrelevant: every
        // value is an address or stride, and `as i64` wraps.
        let wrap = "fn f(q: u64) -> i64 { q as i64 }\n";
        let f = scan("crates/workloads/src/extra.rs", wrap);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "VC003");
        assert!(f[0].message.contains("signed_stride"), "{}", f[0].message);
        // The same line elsewhere in the workspace is not a finding
        // (the marker-based rule still governs there).
        assert!(scan("crates/x/src/a.rs", wrap).is_empty());
        // Narrow casts are flagged without a marker too.
        let narrow = "fn f(q: u64) -> u32 { q as u32 }\n";
        assert_eq!(scan("crates/workloads/src/kernels.rs", narrow).len(), 1);
        // Widening and float casts stay fine, as do test modules.
        for ok in [
            "fn f(q: u32) -> u64 { q as u64 }\n",
            "fn f(q: u64) -> f64 { q as f64 }\n",
            "fn f(q: u64) -> usize { q as usize }\n",
            "#[cfg(test)]\nmod tests {\n    fn t(q: u64) -> i64 { q as i64 }\n}\n",
        ] {
            assert!(scan("crates/workloads/src/vcm.rs", ok).is_empty(), "{ok}");
        }
    }

    #[test]
    fn vc004_crate_root_requirements() {
        let good = "//! Docs.\n#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(scan("crates/x/src/lib.rs", good).is_empty());
        let missing_both = "pub fn f() {}\n";
        let f = scan("crates/x/src/lib.rs", missing_both);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.rule == "VC004"));
        // Non-root files are not checked.
        assert!(scan("crates/x/src/other.rs", missing_both).is_empty());
        // Vendor roots are checked, but nothing else in vendor is.
        assert_eq!(scan("vendor/x/src/lib.rs", missing_both).len(), 2);
        assert!(scan("vendor/x/src/other.rs", "fn f() { a.unwrap() }\n").is_empty());
    }

    #[test]
    fn vc005_traced_needs_untraced_sibling() {
        let paired = "//! d\nfn run() {}\nfn run_traced() {}\n";
        assert!(scan("crates/x/src/a.rs", paired).is_empty());
        let lonely = "fn run_traced() {}\n";
        let f = scan("crates/x/src/a.rs", lonely);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "VC005");
        assert!(f[0].message.contains("fn run"));
    }

    #[test]
    fn vc007_serve_op_handlers_must_take_a_span() {
        // Spanless handler in serve src: flagged.
        let lonely = "//! d\nfn op_ping(shared: &Shared) -> Value {\n    Value::Null\n}\n";
        let f = scan("crates/serve/src/server.rs", lonely);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "VC007");
        assert!(f[0].message.contains("fn op_ping"), "{}", f[0].message);
        assert_eq!(f[0].line, 2);

        // Span parameter anywhere in the (multi-line) signature: clean.
        let spanned = "//! d\nfn op_check(\n    shared: &Shared,\n    span: &SpanHandle,\n) -> Value {\n    Value::Null\n}\n";
        assert!(scan("crates/serve/src/server.rs", spanned).is_empty());

        // `span` in the body alone does not satisfy the rule.
        let body_only =
            "//! d\nfn op_status(shared: &Shared) -> Value {\n    let span = 1;\n    Value::Null\n}\n";
        assert_eq!(scan("crates/serve/src/server.rs", body_only).len(), 1);

        // Non-handler fns, test modules, and other crates are exempt.
        let other_fn = "//! d\nfn dispatch(shared: &Shared) -> Value { Value::Null }\n";
        assert!(scan("crates/serve/src/server.rs", other_fn).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn op_fake() -> u64 { 1 }\n}\n";
        assert!(scan("crates/serve/src/server.rs", in_test).is_empty());
        assert!(scan("crates/core/src/lanes.rs", lonely).is_empty());
        assert!(scan("crates/serve/tests/daemon.rs", lonely).is_empty());
    }

    #[test]
    fn vc008_confines_lattice_shapes_to_absint() {
        let construct = "//! d\nfn f() -> Shape {\n    Shape::Lattice\n}\n";
        // In absint.rs itself: internal, clean.
        assert!(scan("crates/staticcheck/src/absint.rs", construct).is_empty());
        // Anywhere else in the static-analysis crate: flagged.
        let f = scan("crates/staticcheck/src/relational.rs", construct);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "VC008");
        assert!(f[0].message.contains("Shape::Lattice"), "{}", f[0].message);
        // Doc comments and other crates are exempt.
        let doc_only = "//! [`Shape::Lattice`] docs.\nfn f() {}\n";
        assert!(scan("crates/staticcheck/src/nest.rs", doc_only).is_empty());
        assert!(scan("crates/core/src/lanes.rs", construct).is_empty());
    }

    #[test]
    fn vc008_needs_enumeration_must_carry_a_reason() {
        // A bare constructor gives the triage surface nothing to group.
        let bare = "//! d\nfn f() -> R {\n    R::NeedsEnumeration(format(x))\n}\n";
        let f = scan("crates/staticcheck/src/relational.rs", bare);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "VC008");
        assert!(f[0].message.contains("reason"), "{}", f[0].message);
        // A string literal, the enum declaration, and a forwarded
        // `reason` binding (pattern or construction) are all fine.
        for ok in [
            "//! d\nfn f() -> R { R::NeedsEnumeration(\"class-pair-overflow\") }\n",
            "//! d\nenum R {\n    NeedsEnumeration(&'static str),\n}\n",
            "//! d\nfn f(r: R) -> R {\n    match r { R::NeedsEnumeration(reason) => R::NeedsEnumeration(reason) }\n}\n",
        ] {
            assert!(
                scan("crates/staticcheck/src/relational.rs", ok).is_empty(),
                "{ok}"
            );
        }
        // Test modules and other crates are exempt.
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t() -> R { R::NeedsEnumeration(x) }\n}\n";
        assert!(scan("crates/staticcheck/src/relational.rs", in_test).is_empty());
        assert!(scan("crates/model/src/a.rs", bare).is_empty());
    }

    #[test]
    fn vc009_confines_probability_math_to_the_probabilistic_module() {
        let float_math = "//! d\nfn f(p: f64, n: f64) -> f64 {\n    (1.0 - p).powf(n)\n}\n";
        // Inside probabilistic.rs: that is where the model lives.
        assert!(scan("crates/staticcheck/src/probabilistic.rs", float_math).is_empty());
        // Anywhere else in the static-analysis crate: flagged.
        let f = scan("crates/staticcheck/src/worksuite.rs", float_math);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "VC009");
        assert!(f[0].message.contains("powf"), "{}", f[0].message);
        // `.expect(` must not trip the `.exp(` token.
        let expectation = "//! d\nfn f() {\n    stride.expect(|s| g(s));\n}\n";
        assert!(scan("crates/staticcheck/src/nest.rs", expectation).is_empty());
        // Other crates and test modules are exempt.
        assert!(scan("crates/model/src/a.rs", float_math).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t(p: f64) -> f64 { p.sqrt() }\n}\n";
        assert!(scan("crates/staticcheck/src/report.rs", in_test).is_empty());
    }

    #[test]
    fn vc009_non_affine_rows_must_carry_a_profile() {
        // A construction with a reason but no profile is a silent
        // envelope-only row.
        let silent = "//! d\nfn f() -> Lowering {\n    Lowering::NonAffine {\n        reason: \"rng\".into(),\n        envelope: nest,\n    }\n}\n";
        let f = scan("crates/staticcheck/src/worksuite.rs", silent);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "VC009");
        assert!(f[0].message.contains("profile"), "{}", f[0].message);
        // Carrying a profile (even `None` — the semantic layer prices
        // that separately) satisfies the lexical rule.
        let carried = "//! d\nfn f() -> Lowering {\n    Lowering::NonAffine {\n        reason: \"rng\".into(),\n        envelope: nest,\n        profile: Some(p),\n    }\n}\n";
        assert!(scan("crates/staticcheck/src/worksuite.rs", carried).is_empty());
        // Pattern matches bind `reason` without a colon: exempt.
        let pattern = "//! d\nfn f(l: &Lowering) -> bool {\n    matches!(l, Lowering::NonAffine { reason, .. })\n}\n";
        assert!(scan("crates/staticcheck/src/worksuite.rs", pattern).is_empty());
        // Other crates are exempt.
        assert!(scan("crates/model/src/a.rs", silent).is_empty());
    }

    #[test]
    fn rule_table_is_complete() {
        assert_eq!(RULES.len(), 8);
        assert!(RULES
            .iter()
            .all(|(id, d)| id.starts_with("VC") && !d.is_empty()));
    }
}
