//! The `lint` runner: drives [`dsv3_lint`] over this workspace and
//! renders the result through [`crate::report`] like every other
//! experiment — because the linter *is* part of the reproduction: the
//! determinism, panic-freedom, and vendor invariants it enforces are
//! what make every table in the paper reproducible bit-for-bit.

use crate::report::Table;
use dsv3_lint::config::LintConfig;
use dsv3_lint::diag::Report;
use dsv3_lint::rules::RuleId;
use serde::Serialize;
use std::path::{Path, PathBuf};

/// One finding, serializable for `--json`.
#[derive(Debug, Clone, Serialize)]
pub struct LintFinding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`D1` … `W2`).
    pub rule: String,
    /// `error` or `warning`.
    pub severity: String,
    /// What and why.
    pub message: String,
}

/// The whole scan, serializable for `--json`.
#[derive(Debug, Clone, Serialize)]
pub struct LintReport {
    /// Rust sources scanned.
    pub files_scanned: usize,
    /// Manifests scanned (workspace + vendor).
    pub manifests_scanned: usize,
    /// Waivers that suppressed at least one finding.
    pub waivers_honored: usize,
    /// Findings suppressed by a `--baseline` file.
    pub baseline_suppressed: usize,
    /// Error-severity findings.
    pub errors: usize,
    /// Warning-severity findings.
    pub warnings: usize,
    /// All findings in (path, line, rule) order.
    pub findings: Vec<LintFinding>,
}

/// Knobs for one lint invocation, mirrored from the CLI flags.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// `--rules U2,F2`: run only these families (comma-separated ids).
    pub rules: Option<String>,
    /// `--baseline <path>`: suppress findings whose rendered line
    /// appears verbatim in this file.
    pub baseline: Option<String>,
}

/// Locate the workspace root. The compile-time manifest dir of this
/// crate is `<root>/crates/core`; walking up two levels lands on the
/// root. Falls back to the current directory when the build tree moved.
#[must_use]
pub fn workspace_root() -> PathBuf {
    let baked = Path::new(env!("CARGO_MANIFEST_DIR"));
    if let Some(root) = baked.ancestors().nth(2) {
        if root.join("Cargo.toml").is_file() {
            return root.to_path_buf();
        }
    }
    PathBuf::from(".")
}

fn convert(report: &Report) -> LintReport {
    LintReport {
        files_scanned: report.files_scanned,
        manifests_scanned: report.manifests_scanned,
        waivers_honored: report.waivers_honored,
        baseline_suppressed: 0,
        errors: report.errors(),
        warnings: report.warnings(),
        findings: report
            .diagnostics
            .iter()
            .map(|d| LintFinding {
                path: d.path.clone(),
                line: d.line,
                rule: d.rule.as_str().to_string(),
                severity: d.severity.as_str().to_string(),
                message: d.message.clone(),
            })
            .collect(),
    }
}

fn error_report(message: String) -> LintReport {
    LintReport {
        files_scanned: 0,
        manifests_scanned: 0,
        waivers_honored: 0,
        baseline_suppressed: 0,
        errors: 1,
        warnings: 0,
        findings: vec![LintFinding {
            path: String::from("<workspace>"),
            line: 0,
            rule: String::from("IO"),
            severity: String::from("error"),
            message,
        }],
    }
}

/// Scan the workspace under the default policy.
#[must_use]
pub fn run() -> LintReport {
    match dsv3_lint::scan(&workspace_root()) {
        Ok(report) => convert(&report),
        Err(e) => error_report(format!("cannot scan workspace: {e}")),
    }
}

/// Parse a `--rules` comma list into rule ids; unknown names are errors.
pub fn parse_rules(spec: &str) -> Result<Vec<RuleId>, String> {
    let mut out = Vec::new();
    for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match RuleId::parse(name) {
            Some(r) => out.push(r),
            None => return Err(format!("unknown rule '{name}' in --rules")),
        }
    }
    if out.is_empty() {
        return Err(String::from("--rules names no rules"));
    }
    Ok(out)
}

/// Scan the workspace with CLI options: an optional `--rules` family
/// filter, an optional `--baseline` suppression file, and always the
/// P3 parallel-readiness report alongside the findings.
#[must_use]
pub fn run_with(opts: &LintOptions) -> (LintReport, dsv3_lint::ReadinessReport) {
    let mut cfg = LintConfig::default_config();
    if let Some(spec) = &opts.rules {
        match parse_rules(spec) {
            Ok(rules) => cfg.only = Some(rules),
            Err(e) => return (error_report(e), dsv3_lint::ReadinessReport::default()),
        }
    }
    match dsv3_lint::analyze_workspace(&workspace_root(), &cfg) {
        Ok(mut analysis) => {
            let mut suppressed = 0;
            if let Some(path) = &opts.baseline {
                match std::fs::read_to_string(path) {
                    Ok(base) => {
                        suppressed = dsv3_lint::apply_baseline(&mut analysis.report, &base);
                    }
                    Err(e) => {
                        return (
                            error_report(format!("cannot read baseline '{path}': {e}")),
                            dsv3_lint::ReadinessReport::default(),
                        )
                    }
                }
            }
            let mut report = convert(&analysis.report);
            report.baseline_suppressed = suppressed;
            (report, analysis.readiness)
        }
        Err(e) => (
            error_report(format!("cannot scan workspace: {e}")),
            dsv3_lint::ReadinessReport::default(),
        ),
    }
}

/// Render a report: the per-rule policy table with finding counts, plus
/// scan totals.
#[must_use]
pub fn render(report: &LintReport) -> Table {
    let mut t = Table::new(
        "Invariant lint — determinism, panic-freedom, and vendor policy",
        &["rule", "invariant", "severity", "findings"],
    );
    for rule in RuleId::ALL {
        let n = report.findings.iter().filter(|f| f.rule == rule.as_str()).count();
        t.row(&[
            rule.as_str().to_string(),
            rule.invariant().to_string(),
            rule.severity().as_str().to_string(),
            n.to_string(),
        ]);
    }
    t.row(&[
        String::from("—"),
        format!(
            "{} source files, {} manifests scanned",
            report.files_scanned, report.manifests_scanned
        ),
        String::from("—"),
        format!("{} waived", report.waivers_honored),
    ]);
    t
}

/// The lint policy as JSON, hashed into the run manifest so a policy
/// change shows up as a config-hash change.
#[must_use]
pub fn config_json() -> String {
    #[derive(Serialize)]
    struct RulePolicy {
        rule: &'static str,
        invariant: &'static str,
        severity: &'static str,
        allow_paths: Vec<&'static str>,
    }
    let cfg = LintConfig::default_config();
    let policy: Vec<RulePolicy> = RuleId::ALL
        .into_iter()
        .map(|rule| RulePolicy {
            rule: rule.as_str(),
            invariant: rule.invariant(),
            severity: rule.severity().as_str(),
            allow_paths: cfg
                .rules
                .iter()
                .find(|r| r.rule == rule)
                .map(|r| r.allow_paths.clone())
                .unwrap_or_default(),
        })
        .collect();
    serde_json::to_string(&policy).unwrap_or_else(|_| String::from("null"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_is_a_cargo_workspace() {
        let root = workspace_root();
        assert!(root.join("Cargo.toml").is_file());
        assert!(root.join("crates").is_dir());
    }

    #[test]
    fn workspace_scan_is_deterministic() {
        let a = serde_json::to_string(&run()).unwrap();
        let b = serde_json::to_string(&run()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn policy_json_names_every_rule() {
        let j = config_json();
        for rule in RuleId::ALL {
            assert!(j.contains(rule.as_str()), "policy missing {}", rule.as_str());
        }
    }
}
