//! Golden-output tests: every registry experiment except `lint` (whose
//! output depends on the source tree) prints exactly what `tests/golden/`
//! captured — `<name>.txt` is what `dsv3 <name>` prints and
//! `<name>.json` what `dsv3 <name> --json` prints, trailing newline
//! included. Refactors and fast paths (the bit-level FP8 numerics, the
//! incremental max-min solver, the single serving-engine loop) must not
//! move a byte of them.
//!
//! Each entry runs once per test binary, through the same
//! `(e.run)(&mut Recorder::disabled())` call the CLI makes; its text and
//! JSON tests share that run, which also checks the table's shape. The
//! traceable entries run once more with recording on and must print the
//! same bytes: the trace is a pure side channel. The side channels are
//! pinned too: for all six traceable entries, the FNV-1a digests of the
//! Chrome trace (`--trace-out`), the metrics snapshot (`--metrics-out`)
//! and the watchdog incident report (`--incidents-out`) of one
//! `dsv3 audit` run must not change.

use dsv3_core::registry::{registry, Entry, InstrumentedRun};
use dsv3_core::telemetry::{Recorder, WatchConfig};
use std::collections::BTreeMap;
use std::sync::OnceLock;

fn entry(name: &str) -> Entry {
    registry().into_iter().find(|e| e.name == name).expect("registered")
}

/// Panics naming the entry and the first line where `got` leaves `want`.
fn assert_golden(name: &str, what: &str, got: &str, want: &str) {
    if got == want {
        return;
    }
    let (got, want): (Vec<&str>, Vec<&str>) =
        (got.split('\n').collect(), want.split('\n').collect());
    let i = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)).unwrap_or(0);
    panic!(
        "{name}: {what} differs from its golden at line {}:\n   got: {:?}\n  want: {:?}",
        i + 1,
        got.get(i),
        want.get(i)
    );
}

/// The shape every entry's output must have, golden or not: a titled,
/// non-degenerate table and JSON that is an array or an object of rows.
fn assert_shape(name: &str, run: &InstrumentedRun) {
    let t = &run.table;
    assert!(!t.title.is_empty(), "{name}: empty title");
    assert!(!t.headers.is_empty(), "{name}: no headers");
    assert!(!t.rows.is_empty(), "{name}: no rows");
    let text = t.to_string();
    assert!(text.lines().count() >= 4, "{name}: degenerate render:\n{text}");
    assert!(text.contains('|'), "{name}: not a table:\n{text}");
    let value = serde_json::parse(&run.json)
        .unwrap_or_else(|err| panic!("{name}: JSON does not parse: {err}\n{}", run.json));
    assert!(
        value.as_array().is_some() || value.as_object().is_some(),
        "{name}: JSON is neither an array nor an object"
    );
}

/// The one plain run of `name` in this test binary, shape-checked.
fn plain_run(name: &'static str) -> &'static InstrumentedRun {
    static RUNS: OnceLock<BTreeMap<&str, OnceLock<InstrumentedRun>>> = OnceLock::new();
    let runs = RUNS.get_or_init(|| GOLDENS.iter().map(|&(n, ..)| (n, OnceLock::new())).collect());
    runs[name].get_or_init(|| {
        let run = (entry(name).run)(&mut Recorder::disabled());
        assert_shape(name, &run);
        run
    })
}

fn golden(name: &str) -> (&'static str, &'static str) {
    let &(_, txt, js) = GOLDENS.iter().find(|g| g.0 == name).expect("pinned");
    (txt, js)
}

fn check_text(name: &'static str) {
    assert_golden(name, "text", &format!("{}\n", plain_run(name).table), golden(name).0);
}

fn check_json(name: &'static str) {
    assert_golden(name, "JSON", &format!("{}\n", plain_run(name).json), golden(name).1);
}

/// One row per pinned entry: the golden files' stem, the registry name,
/// and the text and JSON tests to generate.
macro_rules! goldens {
    ($($stem:ident: $name:literal => $text:ident, $json:ident;)*) => {
        /// `(name, text golden, JSON golden)` of every pinned entry.
        const GOLDENS: &[(&str, &str, &str)] = &[$((
            $name,
            include_str!(concat!("golden/", stringify!($stem), ".txt")),
            include_str!(concat!("golden/", stringify!($stem), ".json")),
        )),*];
        $(
            #[test]
            fn $text() {
                check_text($name);
            }

            #[test]
            fn $json() {
                check_json($name);
            }
        )*
    };
}

goldens! {
    table1: "table1" => table1_text_report_matches_golden, table1_json_report_matches_golden;
    table2: "table2" => table2_text_report_matches_golden, table2_json_report_matches_golden;
    table3: "table3" => table3_text_report_matches_golden, table3_json_report_matches_golden;
    table4: "table4" => table4_text_report_matches_golden, table4_json_report_matches_golden;
    table5: "table5" => table5_text_report_matches_golden, table5_json_report_matches_golden;
    fig5: "fig5" => fig5_text_report_matches_golden, fig5_json_report_matches_golden;
    fig6: "fig6" => fig6_text_report_matches_golden, fig6_json_report_matches_golden;
    fig7: "fig7" => fig7_text_report_matches_golden, fig7_json_report_matches_golden;
    fig8: "fig8" => fig8_text_report_matches_golden, fig8_json_report_matches_golden;
    speed_limits: "speed-limits" =>
        speed_limits_text_report_matches_golden, speed_limits_json_report_matches_golden;
    combine_formats: "combine-formats" =>
        combine_formats_text_report_matches_golden, combine_formats_json_report_matches_golden;
    mtp: "mtp" => mtp_text_report_matches_golden, mtp_json_report_matches_golden;
    fp8_gemm: "fp8-gemm" => fp8_gemm_text_report_matches_golden, fp8_gemm_json_report_matches_golden;
    logfmt: "logfmt" => logfmt_text_report_matches_golden, logfmt_json_report_matches_golden;
    fp8_training: "fp8-training" =>
        fp8_training_text_report_matches_golden, fp8_training_json_report_matches_golden;
    node_limited: "node-limited" =>
        node_limited_text_report_matches_golden, node_limited_json_report_matches_golden;
    local_deploy: "local-deploy" =>
        local_deploy_text_report_matches_golden, local_deploy_json_report_matches_golden;
    robustness: "robustness" =>
        robustness_text_report_matches_golden, robustness_json_report_matches_golden;
    fault_drill: "fault-drill" =>
        fault_drill_text_report_matches_golden, fault_drill_json_report_matches_golden;
    resilience: "resilience" =>
        resilience_text_report_matches_golden, resilience_json_report_matches_golden;
    net_chaos: "net-chaos" =>
        net_chaos_text_report_matches_golden, net_chaos_json_report_matches_golden;
    mem_timeline: "mem-timeline" =>
        mem_timeline_text_report_matches_golden, mem_timeline_json_report_matches_golden;
    future_hardware: "future-hardware" =>
        future_hardware_text_report_matches_golden, future_hardware_json_report_matches_golden;
    serving: "serving" => serving_text_report_matches_golden, serving_json_report_matches_golden;
    overload: "overload" => overload_text_report_matches_golden, overload_json_report_matches_golden;
}

/// Every entry but `lint` is pinned; `lint`, which scans the source tree,
/// is checked for shape only.
#[test]
fn every_entry_is_pinned_or_lint() {
    for e in registry() {
        if e.name == "lint" {
            assert_shape(e.name, &(e.run)(&mut Recorder::disabled()));
        } else {
            assert!(GOLDENS.iter().any(|g| g.0 == e.name), "{}: no golden", e.name);
        }
    }
    assert_eq!(GOLDENS.len(), registry().len() - 1, "a golden names no registry entry");
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
        ("resilience", 0x43cf_c892_3285_705b, 0x4820_88b3_5aeb_022d, 0xa9ac_69a3_ad40_7aa6),
        ("net-chaos", 0x4b73_81c1_169f_eff1, 0xc2e0_e0de_324c_f1af, 0xa0d9_f736_ca97_73ee),
        ("mem-timeline", 0x116c_3d4e_63bc_5105, 0x42f8_126d_68ea_1d2d, 0x232d_e8d9_f562_288d),
        ("overload", 0x4091_bbc7_6a94_23d6, 0x695d_e610_7b82_c963, 0x3c1b_64bd_0626_9f60),
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

/// The recorded run of every traceable entry prints the same bytes as
/// the plain one — the trace is a pure side channel.
#[test]
fn instrumented_reports_match_goldens_too() {
    let traceable: Vec<Entry> = registry().into_iter().filter(|e| e.traceable).collect();
    let names: Vec<&str> = traceable.iter().map(|e| e.name).collect();
    assert_eq!(
        names,
        ["fault-drill", "resilience", "net-chaos", "mem-timeline", "serving", "overload"]
    );
    for e in traceable {
        let (txt, js) = golden(e.name);
        let mut rec = Recorder::new();
        let run = (e.run)(&mut rec);
        assert_golden(e.name, "recorded text", &format!("{}\n", run.table), txt);
        assert_golden(e.name, "recorded JSON", &format!("{}\n", run.json), js);
        assert!(!rec.events().is_empty(), "{} recorded run must actually trace", e.name);
    }
}
