//! Benchmark the linter itself: the full two-pass workspace analysis
//! (lex, item parse, expression analysis, call graph, P3 reachability)
//! and the parser-only throughput over every workspace source. Writes
//! `BENCH_lint.json` at the repo root in the shared
//! `{"bench", "metrics"}` schema.

use dsv3_bench::{time_ns, write_artifact, REPO_ROOT};
use dsv3_core::lint::config::LintConfig;
use dsv3_core::lint::{analyze_workspace, lexer, parser};
use std::path::Path;

fn main() {
    let root = Path::new(REPO_ROOT);
    let cfg = LintConfig::default_config();

    // Pre-read every source once so the parser-only row measures
    // parsing, not the filesystem.
    let work = dsv3_core::lint::walk::collect(root).expect("walk workspace");
    let sources: Vec<String> = work
        .sources
        .iter()
        .map(|(_, abs)| std::fs::read_to_string(abs).expect("read source"))
        .collect();
    let total_bytes: usize = sources.iter().map(String::len).sum();

    let scan_ns = time_ns(5, 2, || analyze_workspace(root, &cfg).expect("scan"));
    let parse_ns = time_ns(5, 2, || {
        let mut fns = 0usize;
        for src in &sources {
            let lexed = lexer::lex(src);
            fns += parser::parse_items(&lexed.toks, &lexed.comments).fns.len();
        }
        fns
    });
    let parse_mb_per_s = (total_bytes as f64 / 1e6) / (parse_ns / 1e9);

    let metrics = [
        ("workspace_scan_ns", format!("{scan_ns:.0}")),
        ("parse_all_sources_ns", format!("{parse_ns:.0}")),
        ("source_files", sources.len().to_string()),
        ("source_bytes", total_bytes.to_string()),
        ("parser_throughput_mb_per_s", format!("{parse_mb_per_s:.1}")),
    ];
    let path = write_artifact(root, "lint", &metrics).expect("write BENCH_lint.json");
    println!("wrote {}", path.display());
}
