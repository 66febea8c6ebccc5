//! The shared harness of the gated wall-clock benches.
//!
//! Each target in `benches/` (`watch`, `lint`, `resilience`, `memtl`,
//! `overload`) times its rows with [`time_ns`] and writes one
//! `BENCH_<name>.json` at the repo root with [`write_artifact`], in the
//! shared `{"bench", "metrics"}` schema `scripts/bench_gate.sh` compares.
//!
//! Run one with `cargo bench --offline -p dsv3-bench --bench <name>`.

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};

/// The repo root: where the artifacts live and what the lint bench scans.
pub const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Best-of-`samples` per-iteration nanoseconds for `f`.
pub fn time_ns<O>(samples: u32, iters: u32, mut f: impl FnMut() -> O) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        // lint:allow(D1) — the benches measure host time; no simulation reads this clock
        let start = std::time::Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let ns = start.elapsed().as_nanos() as f64 / f64::from(iters);
        if ns < best {
            best = ns;
        }
    }
    best
}

/// One artifact in the shared schema. Each value arrives already
/// formatted to its key's decimals; keys keep the order given.
fn render_artifact<K: AsRef<str>>(bench: &str, metrics: &[(K, String)]) -> String {
    let rows: Vec<String> =
        metrics.iter().map(|(key, value)| format!("    \"{}\": {value}", key.as_ref())).collect();
    format!("{{\n  \"bench\": \"{bench}\",\n  \"metrics\": {{\n{}\n  }}\n}}\n", rows.join(",\n"))
}

/// Write `BENCH_<bench>.json` into `dir` and return its path. A bench
/// must fail on the error: the gate would otherwise compare the
/// checked-in artifact with itself and pass.
pub fn write_artifact<K: AsRef<str>>(
    dir: &Path,
    bench: &str,
    metrics: &[(K, String)],
) -> io::Result<PathBuf> {
    let path = dir.join(format!("BENCH_{bench}.json"));
    std::fs::write(&path, render_artifact(bench, metrics))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_checked_in_watch_artifact() {
        let metrics = [
            ("baseline_ns", format!("{:.0}", 1_019_214.0)),
            ("disabled_recorder_ns", format!("{:.0}", 997_303.0)),
            ("traced_ns", format!("{:.0}", 5_041_204.0)),
            ("evaluate_ns", format!("{:.0}", 541_393.0)),
            ("disabled_overhead_ratio", format!("{:.3}", 0.979)),
        ];
        assert_eq!(render_artifact("watch", &metrics), include_str!("../../../BENCH_watch.json"));
    }

    #[test]
    fn write_reports_an_unwritable_path() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("no-such-dir");
        let err = write_artifact(&dir, "watch", &[("x_ns", "1".to_string())]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(!dir.exists());
    }
}
