//! Golden-output tests: with telemetry off, the `serving` and
//! `fault-drill` reports are byte-identical to the pre-telemetry
//! captures under `tests/golden/` — instrumenting the simulators must
//! not perturb a single byte of the default output.
//!
//! The registry entries that run the emulated FP8 pipeline
//! (`fp8-training` at its default 300 steps, `fp8-gemm`, `logfmt`,
//! `robustness`) are pinned the same way, so the bit-level numerics fast
//! path provably changes no printed byte.
//!
//! Every registry entry that reaches the flow simulator (`fig5`, `fig6`,
//! `fig7` at its default registry parameters, `fig8`, `table5`,
//! `net-chaos`, `future-hardware`) is pinned too, so the incremental
//! max-min solver provably changes no printed byte either.
//!
//! `overload` is pinned the same way, so every consumer of the serving
//! engine has a text and JSON golden. The engine's side channels are
//! pinned too: for `serving` and `fault-drill` (crashes, hedging, plane
//! flaps, SDC), the FNV-1a digests of the Chrome trace (`--trace-out`),
//! the metrics snapshot (`--metrics-out`) and the watchdog incident
//! report (`--incidents-out`) of one `dsv3 audit` run must not change.

use dsv3_core::registry;
use dsv3_core::telemetry::{Recorder, WatchConfig};

fn entry(name: &str) -> dsv3_core::Entry {
    registry().into_iter().find(|e| e.name == name).expect("registered")
}

/// A golden file is exactly what `dsv3 <name>` prints: the rendered
/// table plus the trailing newline `println!` appends.
fn rendered(name: &str) -> String {
    format!("{}\n", (entry(name).render)())
}

fn json(name: &str) -> String {
    format!("{}\n", (entry(name).json)())
}

#[test]
fn serving_text_report_matches_golden() {
    assert_eq!(rendered("serving"), include_str!("golden/serving.txt"));
}

#[test]
fn serving_json_report_matches_golden() {
    assert_eq!(json("serving"), include_str!("golden/serving.json"));
}

#[test]
fn fault_drill_text_report_matches_golden() {
    assert_eq!(rendered("fault-drill"), include_str!("golden/fault_drill.txt"));
}

#[test]
fn fault_drill_json_report_matches_golden() {
    assert_eq!(json("fault-drill"), include_str!("golden/fault_drill.json"));
}

#[test]
fn fp8_training_text_report_matches_golden() {
    assert_eq!(rendered("fp8-training"), include_str!("golden/fp8_training.txt"));
}

#[test]
fn fp8_training_json_report_matches_golden() {
    assert_eq!(json("fp8-training"), include_str!("golden/fp8_training.json"));
}

#[test]
fn fp8_gemm_text_report_matches_golden() {
    assert_eq!(rendered("fp8-gemm"), include_str!("golden/fp8_gemm.txt"));
}

#[test]
fn fp8_gemm_json_report_matches_golden() {
    assert_eq!(json("fp8-gemm"), include_str!("golden/fp8_gemm.json"));
}

#[test]
fn logfmt_text_report_matches_golden() {
    assert_eq!(rendered("logfmt"), include_str!("golden/logfmt.txt"));
}

#[test]
fn logfmt_json_report_matches_golden() {
    assert_eq!(json("logfmt"), include_str!("golden/logfmt.json"));
}

#[test]
fn robustness_text_report_matches_golden() {
    assert_eq!(rendered("robustness"), include_str!("golden/robustness.txt"));
}

#[test]
fn robustness_json_report_matches_golden() {
    assert_eq!(json("robustness"), include_str!("golden/robustness.json"));
}

#[test]
fn fig5_text_report_matches_golden() {
    assert_eq!(rendered("fig5"), include_str!("golden/fig5.txt"));
}

#[test]
fn fig5_json_report_matches_golden() {
    assert_eq!(json("fig5"), include_str!("golden/fig5.json"));
}

#[test]
fn fig6_text_report_matches_golden() {
    assert_eq!(rendered("fig6"), include_str!("golden/fig6.txt"));
}

#[test]
fn fig6_json_report_matches_golden() {
    assert_eq!(json("fig6"), include_str!("golden/fig6.json"));
}

#[test]
fn fig7_text_report_matches_golden() {
    assert_eq!(rendered("fig7"), include_str!("golden/fig7.txt"));
}

#[test]
fn fig7_json_report_matches_golden() {
    assert_eq!(json("fig7"), include_str!("golden/fig7.json"));
}

#[test]
fn fig8_text_report_matches_golden() {
    assert_eq!(rendered("fig8"), include_str!("golden/fig8.txt"));
}

#[test]
fn fig8_json_report_matches_golden() {
    assert_eq!(json("fig8"), include_str!("golden/fig8.json"));
}

#[test]
fn table5_text_report_matches_golden() {
    assert_eq!(rendered("table5"), include_str!("golden/table5.txt"));
}

#[test]
fn table5_json_report_matches_golden() {
    assert_eq!(json("table5"), include_str!("golden/table5.json"));
}

#[test]
fn net_chaos_text_report_matches_golden() {
    assert_eq!(rendered("net-chaos"), include_str!("golden/net_chaos.txt"));
}

#[test]
fn net_chaos_json_report_matches_golden() {
    assert_eq!(json("net-chaos"), include_str!("golden/net_chaos.json"));
}

#[test]
fn future_hardware_text_report_matches_golden() {
    assert_eq!(rendered("future-hardware"), include_str!("golden/future_hardware.txt"));
}

#[test]
fn future_hardware_json_report_matches_golden() {
    assert_eq!(json("future-hardware"), include_str!("golden/future_hardware.json"));
}

#[test]
fn overload_text_report_matches_golden() {
    assert_eq!(rendered("overload"), include_str!("golden/overload.txt"));
}

#[test]
fn overload_json_report_matches_golden() {
    assert_eq!(json("overload"), include_str!("golden/overload.json"));
}

/// FNV-1a, 64-bit: the trace files run to megabytes, so they are pinned
/// by digest rather than checked in.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Trace, metrics snapshot and incident report of one audited run are
/// byte-identical to the captures: `(name, trace, snapshot, incidents)`.
#[test]
fn audited_side_channels_match_golden_digests() {
    for (name, trace, snapshot, incidents) in [
        ("serving", 0xb7f0_1170_f333_b306, 0x6e99_74e2_8eeb_3cb4, 0x3d83_fe22_fc94_52a6),
        ("fault-drill", 0x3160_f447_e3f2_82a9, 0xbc54_4fb9_84c4_35be, 0xa708_405b_82bd_21cb),
    ] {
        let mut rec = Recorder::new();
        let w = entry(name).run_watched(&mut rec, &WatchConfig::default()).expect("traceable");
        let snap = serde_json::to_string_pretty(&rec.snapshot()).expect("snapshot serializes");
        let got = (
            fnv1a(rec.export_trace().to_json().as_bytes()),
            fnv1a(snap.as_bytes()),
            fnv1a(w.incidents.to_json().as_bytes()),
        );
        assert_eq!(got, (trace, snapshot, incidents), "{name}: {got:016x?}");
    }
}

/// The instrumented path computes the same report the plain path does —
/// the trace is a pure side channel.
#[test]
fn instrumented_reports_match_goldens_too() {
    for (name, txt, js) in [
        ("serving", include_str!("golden/serving.txt"), include_str!("golden/serving.json")),
        (
            "fault-drill",
            include_str!("golden/fault_drill.txt"),
            include_str!("golden/fault_drill.json"),
        ),
    ] {
        let mut rec = Recorder::new();
        let run = (entry(name).instrumented.expect("traceable"))(&mut rec);
        assert_eq!(format!("{}\n", run.table), txt, "{name} instrumented table drifted");
        assert_eq!(format!("{}\n", run.json), js, "{name} instrumented JSON drifted");
        assert!(!rec.events().is_empty(), "{name} instrumented run must actually trace");
    }
}
