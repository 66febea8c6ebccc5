//! The repository itself must be lint-clean: zero unwaived findings
//! under every rule family — including the semantic U2/F2/R2/P3 pass —
//! and every waiver in the tree earns its keep.

use std::path::PathBuf;

use dsv3_lint::config::LintConfig;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn workspace_has_zero_findings_and_no_stale_waivers() {
    let report = dsv3_lint::scan(&root()).expect("scan workspace");

    let lines: Vec<String> =
        report.diagnostics.iter().map(dsv3_lint::diag::Diagnostic::render).collect();
    assert!(lines.is_empty(), "workspace must be lint-clean, got:\n{}", lines.join("\n"));
    assert_eq!(report.errors(), 0);
    assert_eq!(report.warnings(), 0);
    assert!(report.files_scanned >= 100, "only {} source files scanned", report.files_scanned);
    assert!(report.manifests_scanned >= 15, "only {} manifests scanned", report.manifests_scanned);
    assert!(report.waivers_honored >= 5, "only {} waivers honored", report.waivers_honored);
}

#[test]
fn every_entry_point_is_parallel_ready() {
    let analysis = dsv3_lint::analyze_workspace(&root(), &LintConfig::default_config())
        .expect("analyze workspace");
    let r = &analysis.readiness;
    assert!(r.entries.len() >= 5, "expected at least 5 lint:entry fns, found {}", r.entries.len());
    // The two entries the roadmap's deterministic-parallel work gates on.
    for needle in ["run_overload_traced", "ChaosSim::run_traced"] {
        assert!(
            r.entries.iter().any(|e| e.entry == needle),
            "readiness report must cover `{needle}`"
        );
    }
    for e in &r.entries {
        assert!(e.ready(), "entry `{}` is NOT READY: effects {:?}", e.entry, e.effects);
    }
    // Byte-stable renderings: the same analysis renders identically.
    assert_eq!(r.render_text(), r.render_text());
    assert_eq!(r.render_json(), r.render_json());
    assert!(r.render_text().contains("verdict: READY"));
}
