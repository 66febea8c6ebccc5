//! `dsv3-lint`: a from-scratch invariant linter for this workspace.
//!
//! The simulator's results are only trustworthy if the code obeys a
//! handful of invariants that `rustc` cannot check: simulated time never
//! reads the wall clock (D1), nothing iterates in hash order (D2), every
//! RNG descends from an explicit seed (D3), libraries return data
//! instead of printing (D4), library code propagates errors instead of
//! panicking (P1), every crate forbids `unsafe` (U1), and every
//! dependency resolves offline to `vendor/` or a workspace crate (V1).
//!
//! On top of the token rules sits a *semantic* pass — an item-level
//! parser ([`parser`]), a workspace symbol table ([`symbols`]), and a
//! conservative call graph ([`callgraph`]) — powering four more
//! families: unit-of-measure discipline over `_us`/`_ms`/`_bytes`-style
//! suffixes (U2), float-determinism (F2), RNG-stream discipline (R2),
//! and an effect-reachability analysis from `// lint:entry` functions
//! that gates the deterministic-parallel roadmap (P3, with its
//! parallel-readiness report).
//!
//! Inline waivers (`// lint:allow(<rule>) — <reason>`, reason
//! mandatory) are the only escape hatch — every exception is visible,
//! justified, and greppable.
//!
//! Deliberately dependency-free: the linter is the tool that enforces
//! the vendor policy, so it must not itself be a reason to vendor more.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod config;
pub mod diag;
pub mod expr;
pub mod lexer;
pub mod manifest;
pub mod parser;
pub mod rules;
pub mod source;
pub mod symbols;
pub mod units;
pub mod walk;

use std::fs;
use std::io;
use std::path::Path;

use callgraph::GraphInput;
use config::LintConfig;
use diag::Report;
use expr::BodyFacts;
use rules::{RawFinding, RuleId};
use source::SourceModel;
use symbols::SymbolTable;

pub use callgraph::ReadinessReport;

/// The outcome of linting one source file.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Findings that survived waiver application, plus W1/W2 findings
    /// about the waivers themselves.
    pub diagnostics: Vec<diag::Diagnostic>,
    /// Waivers that suppressed at least one finding.
    pub waivers_honored: usize,
}

/// A full analysis: the diagnostic report plus the P3 readiness report.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Findings, counts, and renderings.
    pub report: Report,
    /// Per-entry parallel-readiness verdicts.
    pub readiness: ReadinessReport,
}

/// Library-source universe for the cross-file checks (R2b, cross-file
/// U2, P3 reachability): everything except binaries, examples, tests,
/// and benches. Token/local rules are instead scoped per rule by
/// [`LintConfig::applies`].
fn is_lib_universe(rel: &str) -> bool {
    !["src/bin/", "examples/", "tests/", "/benches/"].iter().any(|f| rel.contains(f))
}

/// Apply a file's waivers to its raw findings and report waiver-hygiene
/// problems (W1/W2) under the active rule filter.
fn apply_waivers(
    rel: &str,
    model: &SourceModel,
    raw: Vec<RawFinding>,
    cfg: &LintConfig,
) -> FileScan {
    let mut out = FileScan::default();
    let mut used = vec![0usize; model.waivers.len()];
    for finding in raw {
        let suppressed = model.waivers.iter().enumerate().any(|(wi, w)| {
            let valid = w.malformed.is_none() && w.reason.is_some();
            let covers = w.target_line == Some(finding.line) && w.rules.contains(&finding.rule);
            if valid && covers {
                used[wi] += 1;
                true
            } else {
                false
            }
        });
        if !suppressed {
            out.diagnostics.push(finding.into_diag(rel));
        }
    }
    for (wi, w) in model.waivers.iter().enumerate() {
        if let Some(why) = &w.malformed {
            if cfg.enabled(RuleId::W1) {
                out.diagnostics.push(
                    RawFinding {
                        rule: RuleId::W1,
                        line: w.line,
                        message: format!("malformed waiver: {why}"),
                    }
                    .into_diag(rel),
                );
            }
        } else if w.reason.is_none() {
            if cfg.enabled(RuleId::W1) {
                out.diagnostics.push(
                    RawFinding {
                        rule: RuleId::W1,
                        line: w.line,
                        message: "waiver has no written reason (reasons are mandatory; the \
                                  waived finding still stands)"
                            .to_string(),
                    }
                    .into_diag(rel),
                );
            }
        } else if used[wi] == 0 {
            // A waiver naming only rules the filter disabled cannot be
            // judged stale — its findings were never computed.
            let judgeable = w.rules.iter().any(|r| cfg.enabled(*r));
            if cfg.enabled(RuleId::W2) && judgeable {
                out.diagnostics.push(
                    RawFinding {
                        rule: RuleId::W2,
                        line: w.line,
                        message: "waiver suppresses nothing (stale — remove it)".to_string(),
                    }
                    .into_diag(rel),
                );
            }
        } else {
            out.waivers_honored += 1;
        }
    }
    out
}

struct FileState {
    rel: String,
    model: SourceModel,
    raw: Vec<RawFinding>,
}

/// Analyze a set of in-memory sources as one workspace: pass 1 runs the
/// token rules and per-body semantic analysis per file; pass 2 runs the
/// cross-file checks over the symbol table and call graph; waivers are
/// applied last, once every finding is known.
#[must_use]
pub fn analyze_sources(files: &[(String, String)], cfg: &LintConfig) -> Analysis {
    let mut states: Vec<FileState> = Vec::new();
    let mut symbols = SymbolTable::default();
    let mut facts: Vec<BodyFacts> = Vec::new();
    let mut universe: Vec<bool> = Vec::new();

    // Pass 1: lex, token rules, item parse, per-body analysis.
    for (rel, src) in files {
        let model = SourceModel::parse(src);
        let mut raw = rules::scan_tokens(&model, &|r| cfg.applies(r, rel));
        if walk::is_lib_root(rel) && cfg.applies(RuleId::U1, rel) {
            if let Some(f) = rules::check_forbid_unsafe(&model) {
                raw.push(f);
            }
        }
        let parsed = parser::parse_items(&model.toks, &model.comments);
        symbols.add_file(rel, &parsed, &|l| model.in_test(l));
        let static_muts: Vec<String> =
            parsed.statics.iter().filter(|s| s.is_mut).map(|s| s.name.clone()).collect();
        let hash_fields: Vec<String> = parsed
            .structs
            .iter()
            .flat_map(|s| &s.fields)
            .filter(|f| f.ty.contains("HashMap") || f.ty.contains("HashSet"))
            .map(|f| f.name.clone())
            .collect();
        let lib_file = is_lib_universe(rel);
        for f in &parsed.fns {
            let bf = match f.body {
                Some(range) => {
                    let hash_params: Vec<String> = f
                        .params
                        .iter()
                        .filter(|p| p.ty.contains("HashMap") || p.ty.contains("HashSet"))
                        .map(|p| p.name.clone())
                        .collect();
                    expr::analyze_body(
                        &model.toks,
                        range,
                        &static_muts,
                        &hash_fields,
                        &hash_params,
                        f.is_macro,
                    )
                }
                None => BodyFacts::default(),
            };
            for sf in &bf.findings {
                if cfg.applies(sf.rule, rel) && !model.in_test(sf.line) {
                    raw.push(RawFinding {
                        rule: sf.rule,
                        line: sf.line,
                        message: sf.message.clone(),
                    });
                }
            }
            universe.push(lib_file && !model.in_test(f.line));
            facts.push(bf);
        }
        states.push(FileState { rel: rel.clone(), model, raw });
    }

    // Pass 2: cross-file checks over the call graph.
    let gi = GraphInput { symbols: &symbols, facts: &facts, universe: &universe };
    let mut pass2 = callgraph::rng_findings(&gi);
    pass2.extend(callgraph::call_arg_unit_findings(&gi));
    let (p3, readiness) = callgraph::effect_analysis(&gi);
    pass2.extend(p3);
    for ff in pass2 {
        let st = &mut states[ff.file];
        if cfg.applies(ff.finding.rule, &st.rel) && !st.model.in_test(ff.finding.line) {
            st.raw.push(RawFinding {
                rule: ff.finding.rule,
                line: ff.finding.line,
                message: ff.finding.message,
            });
        }
    }

    // Waivers last, once every finding for a file is known.
    let mut report = Report::default();
    for st in states {
        let scan = apply_waivers(&st.rel, &st.model, st.raw, cfg);
        report.diagnostics.extend(scan.diagnostics);
        report.waivers_honored += scan.waivers_honored;
        report.files_scanned += 1;
    }
    report.sort();
    Analysis { report, readiness }
}

/// Lint one file's source text. `rel` is the workspace-relative path
/// with `/` separators; it drives the per-rule allowlists, the U1
/// crate-root check, and the paths in the resulting diagnostics. The
/// file is analyzed as a one-file workspace, so same-file semantic
/// checks (including P3 over same-file `lint:entry` fns) all run.
#[must_use]
pub fn scan_source(rel: &str, src: &str, cfg: &LintConfig) -> FileScan {
    let analysis = analyze_sources(&[(rel.to_string(), src.to_string())], cfg);
    FileScan {
        diagnostics: analysis.report.diagnostics,
        waivers_honored: analysis.report.waivers_honored,
    }
}

/// Analyze a whole workspace rooted at `root`: sources through both
/// passes, manifests through the vendor policy (V1).
pub fn analyze_workspace(root: &Path, cfg: &LintConfig) -> io::Result<Analysis> {
    let work = walk::collect(root)?;
    let mut files = Vec::with_capacity(work.sources.len());
    for (rel, abs) in &work.sources {
        files.push((rel.clone(), fs::read_to_string(abs)?));
    }
    let mut analysis = analyze_sources(&files, cfg);
    for (rel, abs) in &work.manifests {
        if !cfg.applies(RuleId::V1, rel) {
            continue;
        }
        let src = fs::read_to_string(abs)?;
        analysis.report.diagnostics.extend(manifest::scan_manifest(rel, &src));
        analysis.report.manifests_scanned += 1;
    }
    analysis.report.sort();
    Ok(analysis)
}

/// Lint a whole workspace rooted at `root` with an explicit config.
pub fn scan_with_config(root: &Path, cfg: &LintConfig) -> io::Result<Report> {
    Ok(analyze_workspace(root, cfg)?.report)
}

/// Lint a whole workspace with the repository's default policy.
pub fn scan(root: &Path) -> io::Result<Report> {
    scan_with_config(root, &LintConfig::default_config())
}

/// Remove from `report` every diagnostic whose rendered line appears in
/// `baseline`. A baseline is finding lines as `dsv3 lint` prints them, in
/// the same [`Diagnostic::render`](diag::Diagnostic::render) format, one per line (as
/// [`render_baseline`] writes them). Returns how many were suppressed.
/// Unmatched baseline lines are ignored — a shrinking baseline is
/// progress, not an error.
pub fn apply_baseline(report: &mut Report, baseline: &str) -> usize {
    let lines: std::collections::BTreeSet<&str> =
        baseline.lines().map(str::trim_end).filter(|l| !l.is_empty()).collect();
    let before = report.diagnostics.len();
    report.diagnostics.retain(|d| !lines.contains(d.render().as_str()));
    before - report.diagnostics.len()
}

/// Render a report as a baseline file: the sorted diagnostic lines, one
/// per line, byte-stable.
#[must_use]
pub fn render_baseline(report: &Report) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        out.push_str(&d.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(src: &str) -> FileScan {
        scan_source("crates/x/src/m.rs", src, &LintConfig::default_config())
    }

    #[test]
    fn waiver_suppresses_matching_rule_on_target_line() {
        let s = lib("#![forbid(unsafe_code)]\nfn f() { x.unwrap(); } // lint:allow(P1) — seeded \
                     above\n");
        assert!(s.diagnostics.is_empty(), "{:?}", s.diagnostics);
        assert_eq!(s.waivers_honored, 1);
    }

    #[test]
    fn waiver_for_wrong_rule_suppresses_nothing() {
        let s = lib("fn f() { x.unwrap(); } // lint:allow(D2) — wrong rule\n");
        let rules: Vec<RuleId> = s.diagnostics.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&RuleId::P1), "finding stands");
        assert!(rules.contains(&RuleId::W2), "waiver reported stale");
    }

    #[test]
    fn reasonless_waiver_leaves_finding_and_adds_w1() {
        let s = lib("fn f() { x.unwrap(); } // lint:allow(P1)\n");
        let rules: Vec<RuleId> = s.diagnostics.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&RuleId::P1));
        assert!(rules.contains(&RuleId::W1));
    }

    #[test]
    fn own_line_waiver_covers_next_code_line() {
        let s = lib("// lint:allow(D2) — bounded map, order never iterated\nuse std::collections\
                     ::HashMap;\nfn f() -> HashMap<u8, u8> { HashMap::new() }\n");
        // Only line 2 is covered; the uses on line 3 still fire.
        let d2: Vec<u32> =
            s.diagnostics.iter().filter(|d| d.rule == RuleId::D2).map(|d| d.line).collect();
        assert_eq!(d2, vec![3, 3]);
        assert_eq!(s.waivers_honored, 1);
    }

    #[test]
    fn u1_fires_only_on_lib_roots() {
        let cfg = LintConfig::default_config();
        let missing = "pub fn f() {}\n";
        assert!(scan_source("crates/x/src/lib.rs", missing, &cfg)
            .diagnostics
            .iter()
            .any(|d| d.rule == RuleId::U1));
        assert!(scan_source("crates/x/src/util.rs", missing, &cfg).diagnostics.is_empty());
    }

    #[test]
    fn one_waiver_may_suppress_several_findings_on_its_line() {
        let s = lib("fn f() { a.unwrap(); b.unwrap(); } // lint:allow(P1) — both checked by \
                     caller\n");
        assert!(s.diagnostics.is_empty());
        assert_eq!(s.waivers_honored, 1);
    }

    #[test]
    fn u2_fires_through_scan_source_and_waives() {
        let s = lib("fn f(at_ms: f64) -> f64 { let down_at_us = at_ms * 1000.0; down_at_us }\n");
        assert!(s.diagnostics.iter().any(|d| d.rule == RuleId::U2), "{:?}", s.diagnostics);
        let s = lib("fn f(at_ms: f64) -> f64 { let down_at_us = at_ms * 1000.0; down_at_us } // \
                     lint:allow(U2) — legacy bridge, tracked\n");
        assert!(s.diagnostics.is_empty(), "{:?}", s.diagnostics);
    }

    #[test]
    fn rules_filter_scopes_findings_and_waiver_hygiene() {
        let src = "fn f() { x.unwrap(); let a_us = b_ms; }\n";
        let mut cfg = LintConfig::default_config();
        cfg.only = Some(vec![RuleId::U2]);
        let s = scan_source("crates/x/src/m.rs", src, &cfg);
        let rules: Vec<RuleId> = s.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec![RuleId::U2], "{rules:?}");
        // A P1 waiver must not be called stale while P1 is filtered out.
        let src = "fn g() { y.unwrap(); } // lint:allow(P1) — checked\n";
        let s = scan_source("crates/x/src/m.rs", src, &cfg);
        assert!(s.diagnostics.is_empty(), "{:?}", s.diagnostics);
    }

    #[test]
    fn p3_entry_in_single_file_reports_reachable_effects() {
        let src = "// lint:entry — sim loop\npub fn run() { helper(); }\nfn helper() { \
                   println!(\"x\"); }\n";
        let s = lib(src);
        assert!(s.diagnostics.iter().any(|d| d.rule == RuleId::P3), "{:?}", s.diagnostics);
        // The D4 finding fires too, at the same site.
        assert!(s.diagnostics.iter().any(|d| d.rule == RuleId::D4));
    }

    #[test]
    fn baseline_roundtrip_suppresses_exact_lines() {
        let cfg = LintConfig::default_config();
        let analysis = analyze_sources(
            &[("crates/x/src/m.rs".to_string(), "fn f() { x.unwrap(); }\n".to_string())],
            &cfg,
        );
        let mut report = analysis.report;
        let base = render_baseline(&report);
        assert!(base.contains("error[P1]"));
        let n = apply_baseline(&mut report, &base);
        assert_eq!(n, 1);
        assert!(report.diagnostics.is_empty());
        assert_eq!(apply_baseline(&mut report, "stale line\n"), 0, "unmatched lines ignored");
    }
}
